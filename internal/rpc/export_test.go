package rpc

// Inline reports whether the caller's transport runs handlers on the
// calling goroutine, for the fan-out tests outside the package.
func (c *Caller) Inline() bool { return c.inline }
