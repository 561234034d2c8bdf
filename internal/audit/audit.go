// Package audit implements Pacon's cache↔DFS divergence auditor: an
// online scrubber that samples committed (clean) keys from the region's
// distributed cache and compares them against the authoritative DFS
// state. Pacon's partial consistency promises a *bounded* window in
// which the DFS backup copy trails the cache's primary copy; the
// auditor measures whether that promise holds. Each sampled key is
// classified as
//
//   - match:         region view and DFS agree;
//   - stale-pending: they disagree, but an operation for the key is
//     still in some node's commit pipeline — the disagreement is the
//     inconsistency window working as designed, and the finding carries
//     the in-flight op's age;
//   - divergent:     they disagree and nothing is in flight to repair
//     it — a real consistency violation (lost commit, external
//     mutation, a bug).
//
// A third class looks at the DFS alone (Chunks): an orphan chunk is one
// a data server holds for an inode that no MDS shard holds — bytes an
// unlink should have freed.
//
// The comparison deliberately reuses the production read paths on both
// sides: Client.StatMulti (the batched cache read) for the region view
// and Client.StatBackend (the batched authoritative miss-load) for the
// DFS, so an audit exercises exactly the code applications trust.
//
// On a quiesced (drained) region every sampled key must be a match; the
// chaos harness runs the auditor after each fault schedule as a
// correctness oracle.
package audit

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"pacon/internal/core"
	"pacon/internal/dfs"
	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// Verdict classifies one audited key.
type Verdict int

const (
	Match Verdict = iota
	StalePending
	Divergent
	OrphanChunk
)

func (v Verdict) String() string {
	switch v {
	case Match:
		return "match"
	case StalePending:
		return "stale-pending"
	case Divergent:
		return "divergent"
	case OrphanChunk:
		return "orphan-chunk"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// MarshalText renders the verdict by name in JSON reports.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// Finding is one non-match key with its classification.
type Finding struct {
	Path    string  `json:"path"`
	Verdict Verdict `json:"verdict"`
	// AgeNS is how long the key's oldest in-flight op has been pending
	// (stale-pending; 0 when observability is disabled) — the staleness
	// age of the disagreement.
	AgeNS int64 `json:"age_ns,omitempty"`
	// Ino is the inode an orphan-chunk finding is about (its Path is
	// empty: nothing names the inode any more).
	Ino uint64 `json:"ino,omitempty"`
	// Detail says what disagreed (missing on DFS, size mismatch, ...).
	Detail string `json:"detail,omitempty"`
}

// Report is one audit run's outcome.
type Report struct {
	// Wall is the unix-ns wall-clock completion time of the run.
	Wall         int64 `json:"wall_ns"`
	Sampled      int   `json:"sampled"`
	Matched      int   `json:"matched"`
	StalePending int   `json:"stale_pending"`
	Divergent    int   `json:"divergent"`
	// OrphanChunks counts the inodes holding chunks that no MDS shard
	// holds (Chunks; Run leaves it 0).
	OrphanChunks int `json:"orphan_chunks"`
	// Findings lists every non-match key, sorted by path (orphan chunks
	// by inode).
	Findings []Finding `json:"findings,omitempty"`
}

// String renders a one-look summary plus the worst findings.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "audit: %d sampled — %d match, %d stale-pending, %d divergent",
		r.Sampled, r.Matched, r.StalePending, r.Divergent)
	if r.OrphanChunks > 0 {
		fmt.Fprintf(&sb, ", %d orphan-chunk", r.OrphanChunks)
	}
	for i, f := range r.Findings {
		if i >= 10 {
			fmt.Fprintf(&sb, "\n  ... and %d more", len(r.Findings)-i)
			break
		}
		if f.Verdict == OrphanChunk {
			fmt.Fprintf(&sb, "\n  %-13s inode %d", f.Verdict, f.Ino)
		} else {
			fmt.Fprintf(&sb, "\n  %-13s %s", f.Verdict, f.Path)
		}
		if f.Detail != "" {
			fmt.Fprintf(&sb, " (%s)", f.Detail)
		}
		if f.AgeNS > 0 {
			fmt.Fprintf(&sb, " age=%s", time.Duration(f.AgeNS))
		}
	}
	return sb.String()
}

// Config tunes one audit run.
type Config struct {
	// SampleLimit caps how many committed keys are sampled; <= 0 audits
	// every committed entry resident in the cache.
	SampleLimit int
}

// Run performs one audit through cl. It charges virtual time like any
// client reads (the sampling itself is server-side and free), records
// its verdict with the region for Health, and returns the report.
func Run(cl *core.Client, at vclock.Time, cfg Config) (Report, vclock.Time, error) {
	region := cl.Region()
	entries := region.SampleCommitted(cfg.SampleLimit)
	paths := make([]string, len(entries))
	large := make(map[string]bool, len(entries))
	for i, e := range entries {
		paths[i] = e.Path
		if e.Large {
			large[e.Path] = true
		}
	}

	rep := Report{Sampled: len(entries)}
	var findings []Finding
	if len(paths) > 0 {
		cacheRes, done, err := cl.StatMulti(at, paths)
		at = done
		if err != nil {
			return rep, at, err
		}
		backRes, done := cl.StatBackend(at, paths)
		at = done

		// First pass: every disagreement with an op still in flight is
		// stale-pending; the rest are divergence *candidates*.
		var candidates []int
		for i, p := range paths {
			detail := compare(cacheRes[i], backRes[i], large[p])
			if detail == "" {
				rep.Matched++
				continue
			}
			if region.PathPending(p) {
				findings = append(findings, Finding{
					Path: p, Verdict: StalePending, AgeNS: region.OldestPendingAge(p), Detail: detail,
				})
				continue
			}
			candidates = append(candidates, i)
		}

		// Second look at the candidates: a key can reach here through a
		// benign race — its op committed (and left the pending trackers)
		// between our DFS read and the pending check, or a new write
		// landed after the sample. Re-reading both sides now and
		// re-checking pending separates those from real divergence.
		for _, i := range candidates {
			p := paths[i]
			cr, done, err := cl.StatMulti(at, []string{p})
			at = done
			if err != nil {
				return rep, at, err
			}
			br, done := cl.StatBackend(at, []string{p})
			at = done
			detail := compare(cr[0], br[0], large[p])
			if detail == "" {
				rep.Matched++
				continue
			}
			if region.PathPending(p) {
				findings = append(findings, Finding{
					Path: p, Verdict: StalePending, AgeNS: region.OldestPendingAge(p), Detail: detail,
				})
				continue
			}
			findings = append(findings, Finding{Path: p, Verdict: Divergent, Detail: detail})
		}
	}

	sort.Slice(findings, func(i, j int) bool { return findings[i].Path < findings[j].Path })
	for _, f := range findings {
		switch f.Verdict {
		case StalePending:
			rep.StalePending++
		case Divergent:
			rep.Divergent++
		}
	}
	rep.Findings = findings
	rep.Wall = time.Now().UnixNano()
	region.RecordAudit(core.AuditVerdict{
		Wall:         rep.Wall,
		Sampled:      rep.Sampled,
		Matched:      rep.Matched,
		StalePending: rep.StalePending,
		Divergent:    rep.Divergent,
	})
	return rep, at, nil
}

// Chunks audits a DFS's data servers against its metadata: every inode a
// data server holds chunks of is sampled, and one that no MDS shard holds
// is an orphan — its file was unlinked and its bytes were not dropped.
// It reads the servers and trees directly and charges no virtual time;
// run it on a quiesced cluster, where an unlink in flight cannot look
// like an orphan.
func Chunks(c *dfs.Cluster) Report {
	held := c.Inodes()
	var rep Report
	for _, ds := range c.Data {
		ds.Inodes(func(ino uint64, chunks int) {
			rep.Sampled++
			if held[ino] {
				rep.Matched++
				return
			}
			rep.OrphanChunks++
			rep.Findings = append(rep.Findings, Finding{Ino: ino, Verdict: OrphanChunk,
				Detail: fmt.Sprintf("%d chunk(s) on a data server", chunks)})
		})
	}
	sort.Slice(rep.Findings, func(i, j int) bool { return rep.Findings[i].Ino < rep.Findings[j].Ino })
	rep.Wall = time.Now().UnixNano()
	return rep
}

// compare returns "" when the region view and the DFS agree, else a
// description of the disagreement. Comparison rules follow the chaos
// oracle: kind must match; size is compared only for small regular
// files (a Large file's authoritative size lives on the DFS data path,
// and directory sizes are DFS-implementation-defined).
func compare(cache, dfs fsapi.StatResult, large bool) string {
	cacheAbsent := cache.Err != nil && errors.Is(cache.Err, fsapi.ErrNotExist)
	dfsAbsent := dfs.Err != nil && errors.Is(dfs.Err, fsapi.ErrNotExist)
	switch {
	case cache.Err != nil && !cacheAbsent:
		return fmt.Sprintf("region read failed: %v", cache.Err)
	case dfs.Err != nil && !dfsAbsent:
		return fmt.Sprintf("DFS read failed: %v", dfs.Err)
	case cacheAbsent && dfsAbsent:
		return "" // absent on both sides is agreement
	case dfsAbsent:
		return "missing on DFS"
	case cacheAbsent:
		return "absent in region view but present on DFS"
	case cache.Stat.IsDir() != dfs.Stat.IsDir():
		return fmt.Sprintf("kind mismatch: region %v, DFS %v", cache.Stat.Type, dfs.Stat.Type)
	case !cache.Stat.IsDir() && !large && cache.Stat.Size != dfs.Stat.Size:
		return fmt.Sprintf("size mismatch: region %d, DFS %d", cache.Stat.Size, dfs.Stat.Size)
	}
	return ""
}
