package bench

import (
	"os"
	"os/exec"
	"testing"
)

// TestAblInlineRepeatsOnOneP: on a pinned runtime — one P, no collector,
// no asynchronous preemption — abl-inline is a function of its input. Its
// crossings wait on the nodes' in-flight tables and move a parked op at
// once, so no wall-clock patience decides when a barrier runs. The test
// re-executes its own binary under that runtime, and the child runs the
// ablation at tiny scale twice and requires byte-identical CSV.
//
// It runs only with PACON_DETERMINISM set: the runtime still preempts a
// goroutine that has run for 10 ms of wall time, so on a loaded host two
// runs differ about once in a hundred (EXPERIMENTS.md, "The in-flight
// table knows what is parked"). Run it alone:
//
//	PACON_DETERMINISM=1 go test -run TestAblInlineRepeatsOnOneP -count=500 ./internal/bench/
func TestAblInlineRepeatsOnOneP(t *testing.T) {
	switch os.Getenv("PACON_DETERMINISM") {
	case "":
		t.Skip("set PACON_DETERMINISM=1 to run abl-inline twice on a pinned runtime")
	case "child":
	default:
		cmd := exec.Command(os.Args[0], "-test.run=^TestAblInlineRepeatsOnOneP$", "-test.count=1")
		cmd.Env = append(os.Environ(), "PACON_DETERMINISM=child", "GODEBUG=asyncpreemptoff=1", "GOGC=off", "GOMAXPROCS=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("pinned child: %v\n%s", err, out)
		}
		return
	}
	var csv [2]string
	for i := range csv {
		figs, err := Run("abl-inline", tiny())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range figs {
			csv[i] += f.CSV()
		}
	}
	if csv[0] != csv[1] {
		t.Fatalf("two pinned runs differ:\n%s\n%s", csv[0], csv[1])
	}
}
