package bench

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{
		Model:                Quick().Model,
		MaxNodes:             4,
		ClientsPerNode:       5,
		ItemsPerClient:       15,
		MADbenchProcsPerNode: 2,
		MADbenchFileMB:       1,
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{
		ID: "figX", Title: "Demo", XLabel: "x", YLabel: "ops",
		Series: []string{"A", "B"},
	}
	f.AddPoint("1", map[string]float64{"A": 1500, "B": 2.5e6})
	f.AddPoint("2", map[string]float64{"A": 42, "B": 0})
	f.Note("hello %d", 7)

	s := f.String()
	for _, want := range []string{"figX", "1.5k", "2.50M", "42", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "x,A,B\n") || !strings.Contains(csv, "1,1500,2.5e+06") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestFigureAccessors(t *testing.T) {
	f := &Figure{Series: []string{"S"}}
	f.AddPoint("p0", map[string]float64{"S": 10})
	f.AddPoint("p1", map[string]float64{"S": 20})
	if f.Value(0, "S") != 10 || f.Last("S") != 20 {
		t.Fatal("accessors wrong")
	}
	if f.Value(5, "S") != 0 || f.Value(-1, "S") != 0 {
		t.Fatal("out-of-range must be 0")
	}
}

func TestRegistryListsAllFigures(t *testing.T) {
	ids := IDs()
	want := []string{
		"abl-async", "abl-inline", "abl-model", "abl-multimds", "abl-perm", "ext-batchfs",
		"fig1", "fig10", "fig11", "fig12", "fig2", "fig7", "fig8", "fig9",
	}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestAblationShapes(t *testing.T) {
	cfg := tiny()
	figs, err := Run("abl-async", cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	if f.Last("Pacon") <= f.Last("Pacon-sync-commit") {
		t.Fatal("async commit must outperform sync commit")
	}

	figs, err = Run("abl-perm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	f = figs[0]
	if f.Last("Pacon-batch") <= f.Last("Pacon-hierarchical") {
		t.Fatal("batch permissions must outperform hierarchical checking at depth 6")
	}
	// Hierarchical checking must regain depth sensitivity.
	if f.Last("Pacon-hierarchical") >= 0.9*f.Value(0, "Pacon-hierarchical") {
		t.Fatal("hierarchical checking should lose throughput with depth")
	}

	figs, err = Run("abl-inline", cfg)
	if err != nil {
		t.Fatal(err)
	}
	f = figs[0]
	if f.Last("Pacon-inline") <= f.Last("Pacon-no-inline") {
		t.Fatal("inline small files must outperform write-through")
	}
}

func TestClientCountLadder(t *testing.T) {
	cfg := tiny()
	got := cfg.clientCounts(true)
	want := []int{1, 5, 10, 20}
	if len(got) != len(want) {
		t.Fatalf("ladder = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	if n := cfg.nodesFor(1); n != 1 {
		t.Fatalf("nodesFor(1) = %d", n)
	}
	if n := cfg.nodesFor(20); n != 4 {
		t.Fatalf("nodesFor(20) = %d", n)
	}
	if n := cfg.nodesFor(10000); n != cfg.MaxNodes {
		t.Fatalf("nodesFor(huge) = %d", n)
	}
}

// Smoke-run every figure at tiny scale and check the paper's directional
// claims hold even there.
func TestFig7ShapeHolds(t *testing.T) {
	figs, err := Run("fig7", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("fig7 returned %d figures", len(figs))
	}
	create := figs[1]
	if got := create.Last(string(Pacon)); got <= create.Last(string(BeeGFS)) {
		t.Fatalf("Pacon create (%.0f) must beat BeeGFS (%.0f)", got, create.Last(string(BeeGFS)))
	}
	if got := create.Last(string(Pacon)); got <= create.Last(string(IndexFS)) {
		t.Fatalf("Pacon create (%.0f) must beat IndexFS (%.0f)", got, create.Last(string(IndexFS)))
	}
	stat := figs[2]
	if stat.Last(string(Pacon)) <= stat.Last(string(BeeGFS)) {
		t.Fatal("Pacon stat must beat BeeGFS")
	}
}

func TestFig9PathTraversalShape(t *testing.T) {
	figs, err := Run("fig9", tiny())
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	// BeeGFS and IndexFS degrade with depth; Pacon stays flat (±10%).
	for _, sys := range []string{string(BeeGFS), string(IndexFS)} {
		if f.Last(sys) >= f.Value(0, sys) {
			t.Fatalf("%s must lose throughput with depth", sys)
		}
	}
	p0, p3 := f.Value(0, string(Pacon)), f.Last(string(Pacon))
	if p3 < 0.85*p0 || p3 > 1.15*p0 {
		t.Fatalf("Pacon must be depth-insensitive: %.0f vs %.0f", p0, p3)
	}
}

func TestFig10OverheadShape(t *testing.T) {
	figs, err := Run("fig10", tiny())
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	ratio := f.Last(string(Pacon)) / f.Last(string(Memcached))
	if ratio < 0.55 || ratio >= 1.0 {
		t.Fatalf("Pacon/Memcached = %.2f, want in [0.55, 1.0) (paper: >0.646)", ratio)
	}
	if f.Last(string(BeeGFS)) >= f.Last(string(Pacon)) {
		t.Fatal("BeeGFS single-client mkdir must be slowest")
	}
}

func TestFig12MADbenchShape(t *testing.T) {
	figs, err := Run("fig12", tiny())
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	// Total runtimes comparable (data-intensive), Pacon init smaller.
	bTotal, pTotal := f.Value(4, string(BeeGFS)), f.Value(4, string(Pacon))
	if pTotal > 1.1*bTotal {
		t.Fatalf("Pacon total (%.2f) should not exceed BeeGFS (%.2f) by >10%%", pTotal, bTotal)
	}
	if f.Value(0, string(Pacon)) >= f.Value(0, string(BeeGFS)) {
		t.Fatal("Pacon init must be below BeeGFS init")
	}
}

func TestFig1NormalizationBaseline(t *testing.T) {
	// Plateau shapes need enough clients to saturate the MDS: quick
	// scale (80 clients), not tiny.
	figs, err := Run("fig1", Quick())
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	// First row is the 1-client baseline: exactly 1.0 for both.
	if f.Value(0, string(BeeGFS)) != 1.0 || f.Value(0, string(IndexFS)) != 1.0 {
		t.Fatalf("baseline row = %+v", f.Points[0])
	}
	// BeeGFS must plateau: the last two rows within 10%.
	n := len(f.Points)
	a, b := f.Value(n-2, string(BeeGFS)), f.Value(n-1, string(BeeGFS))
	if b > 1.1*a {
		t.Fatalf("BeeGFS still scaling at max clients: %v -> %v", a, b)
	}
}

func TestFig2BothSystemsLoseWithDepth(t *testing.T) {
	figs, err := Run("fig2", tiny())
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	for _, sys := range f.Series {
		if f.Last(sys) >= f.Value(0, sys) {
			t.Fatalf("%s did not lose throughput with depth", sys)
		}
	}
}

func TestFig8MultiAppShape(t *testing.T) {
	cfg := tiny()
	figs, err := Run("fig8", cfg)
	if err != nil {
		t.Fatal(err)
	}
	create := figs[1]
	// Pacon wins overall, and IndexFS improves as apps spread directories.
	if create.Last(string(Pacon)) <= create.Last(string(IndexFS)) {
		t.Fatal("Pacon must beat IndexFS in multi-app create")
	}
	if create.Last(string(IndexFS)) <= create.Value(0, string(IndexFS)) {
		t.Fatal("IndexFS must improve with more apps (partition spreading)")
	}
}

func TestFig11AbsoluteAndNormalized(t *testing.T) {
	figs, err := Run("fig11", Quick())
	if err != nil {
		t.Fatal(err)
	}
	norm, abs := figs[0], figs[1]
	if norm.Last(string(Pacon)) <= norm.Last(string(BeeGFS)) {
		t.Fatal("Pacon must scale better than BeeGFS")
	}
	// Absolute Pacon throughput grows with clients.
	if abs.Last(string(Pacon)) <= abs.Value(1, string(Pacon)) {
		t.Fatal("Pacon absolute throughput must grow with clients")
	}
}

func TestExtBatchFSShape(t *testing.T) {
	figs, err := Run("ext-batchfs", tiny())
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	// Bulk insertion must beat plain IndexFS on the N-N workload.
	if f.Last("BatchFS(bulk)") <= f.Last("IndexFS") {
		t.Fatal("bulk insertion must beat synchronous IndexFS inserts")
	}
}

func TestMdtestToolRunner(t *testing.T) {
	cfg := tiny()
	res, err := RunMdtest(cfg, Pacon, MdtestSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.MaxNodes * cfg.ClientsPerNode * cfg.ItemsPerClient)
	if res.Create.Ops != want || res.Remove.Ops != want {
		t.Fatalf("ops = %+v", res)
	}
	// Tree mode.
	res, err = RunMdtest(cfg, BeeGFS, MdtestSpec{Depth: 3, Fanout: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.StatLeaves.Ops == 0 || res.Create.Ops != 0 {
		t.Fatalf("tree mode ops = %+v", res)
	}
}

func TestModelSensitivityShape(t *testing.T) {
	figs, err := Run("abl-model", tiny())
	if err != nil {
		t.Fatal(err)
	}
	rtt, mds := figs[0], figs[1]
	// Pacon must win everywhere in the sweep...
	for i := range rtt.Points {
		if rtt.Value(i, "ratio") <= 1.5 {
			t.Fatalf("RTT sweep point %d: ratio %.2f too small", i, rtt.Value(i, "ratio"))
		}
	}
	// ...with the expected monotone trends: slower network shrinks the
	// win (cache RPCs pay RTT too); slower MDS grows it.
	if rtt.Last("ratio") >= rtt.Value(0, "ratio") {
		t.Fatal("ratio must shrink as RTT grows")
	}
	if mds.Last("ratio") <= mds.Value(0, "ratio") {
		t.Fatal("ratio must grow as the MDS slows")
	}
}

func TestMultiMDSAblationShape(t *testing.T) {
	figs, err := Run("abl-multimds", tiny())
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	// More MDSes help BeeGFS...
	if f.Last(string(BeeGFS)) <= f.Value(0, string(BeeGFS)) {
		t.Fatal("multi-MDS must raise BeeGFS throughput")
	}
	// ...but Pacon stays ahead even at 8 MDSes.
	if f.Last(string(Pacon)) <= f.Last(string(BeeGFS)) {
		t.Fatal("Pacon must still lead an 8-MDS BeeGFS")
	}
}

// TestPaconPhasesIndependentOfProcs: the paper-scale Pacon phases (320
// clients) read the same on one P and on two. A station that lets a
// request stamped in the virtual future hold back the present — a commit
// process's settle queued ahead of the clients' cache ops — read the
// mkdir and create phases at the MDS's speed whenever more than one P ran
// goroutines.
func TestPaconPhasesIndependentOfProcs(t *testing.T) {
	phases := func(procs int) (mkdir, create float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		mkdir, create, _, err := runPhases(Default(), Pacon, 320)
		if err != nil {
			t.Fatal(err)
		}
		return mkdir, create
	}
	m1, c1 := phases(1)
	m2, c2 := phases(2)
	for _, ph := range []struct {
		name   string
		p1, p2 float64
	}{{"mkdir", m1, m2}, {"create", c1, c2}} {
		if math.Abs(ph.p2-ph.p1) > 0.02*ph.p1 {
			t.Errorf("%s: %.0f ops/s on one P, %.0f on two: more than 2%% apart", ph.name, ph.p1, ph.p2)
		}
	}
}
