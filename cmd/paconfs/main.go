// Command paconfs is an interactive shell over a simulated Pacon
// deployment: a BeeGFS-like cluster plus one consistent region, driven
// by file-system commands. It exists to poke at the system by hand —
// watch async commits queue and drain, metadata stay cache-resident,
// checkpoints roll the workspace back.
//
// Usage:
//
//	paconfs [-nodes 4] [-ws /w] [-metrics 127.0.0.1:9090]
//
//	pacon:/w> create results.dat
//	pacon:/w> write results.dat hello world
//	pacon:/w> stats
//	pacon:/w> help
//
// With -metrics, the shell also serves Prometheus-text metrics at
// /metrics, region health as JSON at /healthz (503 once stalled),
// kept trace spans at /debug/trace (?span=N for one cross-node
// critical path), the hotspot snapshot at /debug/hot (?k=N), expvar
// at /debug/vars, and pprof at /debug/pprof/ while it runs.
package main

import (
	"bufio"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"

	"pacon"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 4, "client nodes in the region")
		shards  = flag.Int("shards", 0, "MDS shard count, subtree-partitioned (0 and 1 are one MDS)")
		ws      = flag.String("ws", "/w", "workspace (consistent region root)")
		metrics = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	)
	flag.Parse()

	sh, err := newShell(*nodes, *shards, *ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paconfs:", err)
		os.Exit(1)
	}
	defer sh.close()

	if *metrics != "" {
		sh.obs.PublishExpvar("pacon")
		mux := http.NewServeMux()
		mux.Handle("/metrics", sh.obs.Handler())
		// /healthz serves the region's aggregated health as JSON: 200
		// while the region is ok or degraded (still making progress),
		// 503 once it is stalled — the shape load balancers probe.
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			h := sh.region.Health()
			w.Header().Set("Content-Type", "application/json")
			if h.Status == pacon.HealthStalled {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(h); err != nil {
				fmt.Fprintln(os.Stderr, "paconfs: healthz:", err)
			}
		})
		// /debug/trace serves the recently kept spans (sampled +
		// tail-kept anomalies) as JSON; ?span=N narrows to one span's
		// full cross-node critical path, 404 when nothing is retained.
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if q := r.URL.Query().Get("span"); q != "" {
				id, perr := strconv.ParseUint(q, 10, 64)
				if perr != nil || id == 0 {
					http.Error(w, "bad span id", http.StatusBadRequest)
					return
				}
				cp, ok := sh.obs.SpanTrace(id)
				if !ok {
					http.Error(w, "span not retained", http.StatusNotFound)
					return
				}
				if err := enc.Encode(cp); err != nil {
					fmt.Fprintln(os.Stderr, "paconfs: trace:", err)
				}
				return
			}
			out := struct {
				Stats pacon.TraceStats `json:"stats"`
				Spans []pacon.CritPath `json:"spans"`
			}{sh.obs.TraceStats(), sh.obs.RecentSpans(32)}
			if err := enc.Encode(out); err != nil {
				fmt.Fprintln(os.Stderr, "paconfs: trace:", err)
			}
		})
		// /debug/hot serves the merged hotspot snapshot as JSON: top-K
		// heavy-hitter paths (?k=N, default 16), subtrees with ≥5% of
		// the load, and per-node op skew.
		mux.HandleFunc("/debug/hot", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			k := 16
			if q := r.URL.Query().Get("k"); q != "" {
				n, perr := strconv.Atoi(q)
				if perr != nil || n < 1 {
					http.Error(w, "bad k", http.StatusBadRequest)
					return
				}
				k = n
			}
			rep := sh.obs.HotReport(k, 0.05)
			if rep == nil {
				rep = &pacon.HotReport{}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, "paconfs: hot:", err)
			}
		})
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "paconfs: metrics server:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", *metrics)
	}

	fmt.Printf("paconfs — Pacon shell on %d nodes, workspace %s (type 'help')\n", *nodes, *ws)
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("pacon:%s> ", *ws)
		if !in.Scan() {
			fmt.Println()
			return
		}
		out, quit, err := sh.exec(in.Text())
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if out != "" {
			fmt.Println(out)
		}
		if quit {
			return
		}
	}
}
