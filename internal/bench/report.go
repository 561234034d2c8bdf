package bench

import (
	"fmt"
	"sort"
	"strings"

	"pacon/internal/core"
	"pacon/internal/obs"
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

// Run executes one experiment, discarding any report rows.
func Run(id string, cfg Config) ([]*Figure, error) {
	return (&Report{Config: cfg}).Run(id)
}

// IDs lists every experiment — paper figures and report experiments —
// in order.
func IDs() []string {
	out := ReportIDs()
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ReportIDs lists the report experiments — the ones that yield Points —
// in order.
func ReportIDs() []string {
	out := make([]string, 0, len(reports))
	for id := range reports {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Report is the machine-readable result of a paconbench invocation
// (BENCH.json): the scale it ran at and one Point per measured row of
// every report experiment it ran.
type Report struct {
	Config Config  `json:"config"`
	Points []Point `json:"points"`
}

// Point is one measured row. Every row of every report experiment has
// this shape; what only one workload can say goes into Extra.
type Point struct {
	// ID is experiment/workload/clients/mds_shards[/param], where param
	// is the hotspot row's zipf s ("s1.2") or the audit row's chaos seed
	// ("seed3").
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	// Clients is the simulated client count, run by Goroutines real
	// client goroutines spread over Nodes client nodes.
	Clients    int `json:"clients"`
	Nodes      int `json:"nodes"`
	Goroutines int `json:"goroutines"`
	// MDSShards is the metadata-service pool backing the row: 0 = the
	// single unsharded MDS, n >= 1 = the subtree-partitioned router over
	// n shards (1 is the honest router-overhead baseline of a sweep).
	MDSShards int   `json:"mds_shards"`
	Ops       int64 `json:"ops"`
	// VirtualOPS is measured-phase client ops per second of virtual time,
	// to the end of the drain (the read mix, which never drains, to the
	// end of the phase).
	VirtualOPS float64 `json:"virtual_ops_per_sec"`
	// WallSeconds is real host time for the whole row — deployment, warm
	// phase, measured phase, drain: what the row cost the harness, not
	// the model.
	WallSeconds float64 `json:"wall_seconds"`
	// MDSQueueWaitNSPerOp is the mean virtual queueing delay per metadata
	// op at the MDS pool — time a request waited for a free worker slot;
	// the saturation signal sharding exists to relieve.
	MDSQueueWaitNSPerOp float64 `json:"mds_queue_wait_ns_per_op"`
	// Region holds the region's counters over the deployment's whole life
	// (warm phase and its drain included).
	Region core.RegionStats `json:"region"`
	// StageLatency holds wall-clock {count, p50, p95, p99} per pipeline
	// stage histogram (client_op, queue_wait, cache_rpc, dfs_rpc,
	// commit_lag, barrier_wait, the tracer's critpath_* segments, ...).
	// Real host time, orthogonal to VirtualOPS, which obs never perturbs.
	StageLatency map[string]obs.Quantiles `json:"stage_latency_ns"`
	// Trace reports the causal tracer's sampling at this row (head rate,
	// spans sampled, anomalous spans tail-kept).
	Trace obs.TraceStats `json:"trace"`
	// Extra holds workload-specific counts and verdicts (creates,
	// cache_rpcs_per_create, sketch_recall_top16, divergent, ...).
	Extra map[string]float64 `json:"extra"`
}

// Run executes experiment id at r.Config. A report experiment measures
// its table row by row, appending each Point to r, and renders the rows
// as one figure; rows measured before a failure (and the row a failed
// gate produced) stay in the report, so a failed audit still documents
// its divergences. Any other id runs its registered paper-figure runner.
func (r *Report) Run(id string) ([]*Figure, error) {
	table, ok := reports[id]
	if !ok {
		run, ok := registry[id]
		if !ok {
			return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
		}
		figs, err := run(r.Config)
		if err != nil {
			err = fmt.Errorf("%s: %w", id, err)
		}
		return figs, err
	}
	first := len(r.Points)
	var err error
	for _, row := range table.rows(r.Config) {
		rid := row.id(id)
		var pt *Point
		if pt, err = row.measure(r.Config); pt != nil {
			pt.ID, pt.Experiment, pt.Workload = rid, id, row.mix.name
			pt.Clients, pt.MDSShards = row.clients, row.mdsShards
			r.Points = append(r.Points, *pt)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", rid, err)
			break
		}
	}
	return []*Figure{pointsFigure(id, table.title, r.Points[first:])}, err
}

// pointsFigure renders an experiment's rows as a text table: the shared
// columns, then every Extra key any row carries.
func pointsFigure(id, title string, pts []Point) *Figure {
	f := &Figure{
		ID: id, Title: title, XLabel: "workload/clients/mds_shards", YLabel: "see series",
		Series: []string{"virtualOPS", "mdsQueueWaitUS", "cacheRPCs", "backendRPCs", "coalesced", "wallSec"},
	}
	extras := map[string]bool{}
	for _, pt := range pts {
		y := map[string]float64{
			"virtualOPS":     pt.VirtualOPS,
			"mdsQueueWaitUS": pt.MDSQueueWaitNSPerOp / 1e3,
			"cacheRPCs":      float64(pt.Region.CacheRPCs),
			"backendRPCs":    float64(pt.Region.BackendRPCs),
			"coalesced":      float64(pt.Region.Coalesced),
			"wallSec":        pt.WallSeconds,
		}
		for k, v := range pt.Extra {
			y[k] = v
			extras[k] = true
		}
		f.AddPoint(strings.TrimPrefix(pt.ID, id+"/"), y)
	}
	shared := len(f.Series)
	for k := range extras {
		f.Series = append(f.Series, k)
	}
	sort.Strings(f.Series[shared:])
	noteSweeps(f, pts)
	return f
}

// noteSweeps adds, for every row measured at more than one MDS shard,
// its scaling against the 1-shard row that opened its sweep, and flags
// rows that degrade more than 10% below it — the sweep reports
// regressions, it does not hide them.
func noteSweeps(f *Figure, pts []Point) {
	var base Point // the latest 1-shard row: sweeps list it first
	for i, pt := range pts {
		switch {
		case pt.MDSShards == 1:
			base = pt
		case pt.MDSShards > 1 && base.Workload == pt.Workload && base.Clients == pt.Clients && base.VirtualOPS > 0:
			x := f.Points[i].X
			f.Note("%s: %.0f -> %.0f ops/s from 1 to %d shards (%.2fx); MDS queue wait %.1fus -> %.1fus per op",
				x, base.VirtualOPS, pt.VirtualOPS, pt.MDSShards, pt.VirtualOPS/base.VirtualOPS,
				base.MDSQueueWaitNSPerOp/1e3, pt.MDSQueueWaitNSPerOp/1e3)
			if pt.VirtualOPS < 0.9*base.VirtualOPS {
				f.Note("%s: degrades %.0f%% vs single-shard", x, 100*(1-pt.VirtualOPS/base.VirtualOPS))
			}
		}
	}
}
