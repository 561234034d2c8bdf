package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Figure is one reproduced table/figure: series of Y values over X
// points, plus derived headline notes ("Pacon/BeeGFS = 84x ...").
type Figure struct {
	ID     string // e.g. "fig7-create"
	Title  string
	XLabel string
	YLabel string
	Series []string // column order
	Points []Row
	Notes  []string
}

// Row is one figure row: an X value and each series' Y.
type Row struct {
	X string
	Y map[string]float64
}

// AddPoint appends a row.
func (f *Figure) AddPoint(x string, y map[string]float64) {
	f.Points = append(f.Points, Row{X: x, Y: y})
}

// Note records a derived observation.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Value returns series s at row i (0 when absent).
func (f *Figure) Value(i int, s string) float64 {
	if i < 0 || i >= len(f.Points) {
		return 0
	}
	return f.Points[i].Y[s]
}

// Last returns series s at the final row.
func (f *Figure) Last(s string) float64 { return f.Value(len(f.Points)-1, s) }

// String renders an aligned text table.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "   (y = %s)\n", f.YLabel)

	headers := append([]string{f.XLabel}, f.Series...)
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		row := []string{p.X}
		for _, s := range f.Series {
			row = append(row, formatY(p.Y[s]))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "  %*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(s)
	}
	b.WriteByte('\n')
	for _, p := range f.Points {
		b.WriteString(p.X)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%g", p.Y[s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatY(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Runner is a paper-figure experiment; the registry maps experiment ids
// to runners so cmd/paconbench can list and select them.
type Runner func(Config) ([]*Figure, error)

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// Run executes one experiment.
func Run(id string, cfg Config) ([]*Figure, error) {
	run, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	figs, err := run(cfg)
	if err != nil {
		err = fmt.Errorf("%s: %w", id, err)
	}
	return figs, err
}

// IDs lists every experiment in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
