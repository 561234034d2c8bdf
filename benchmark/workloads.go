package main

import (
	"fmt"
	"math/rand"
	"time"

	"pacon/internal/core"
	"pacon/internal/fsapi"
	"pacon/internal/vclock"
)

// sizing fixes every workload's op counts. An epoch is a fixed op count
// per client, sized to ≈0.375 s (epochMillis) on the reference host
// (2 shared cores).
type sizing struct {
	ckptFilesPerGen  int
	ckptGensPerEpoch int
	statDirs         int
	statFilesPerDir  int
	statHotOps       int
	statEvictOps     int
	evictCapBytes    int64
	appCycles        int
	appFiles         int
}

var fullSizing = sizing{
	ckptFilesPerGen: 4096, ckptGensPerEpoch: 5,
	statDirs: 64, statFilesPerDir: 1024, statHotOps: 64_000, statEvictOps: 24_000,
	evictCapBytes: 1 << 20,
	appCycles:     64, appFiles: 32,
}

// smokeSizing keeps `go test` under five seconds: ~1k ops per epoch.
var smokeSizing = sizing{
	ckptFilesPerGen: 32, ckptGensPerEpoch: 6,
	statDirs: 8, statFilesPerDir: 64, statHotOps: 600, statEvictOps: 600,
	evictCapBytes: 12 << 10,
	appCycles:     4, appFiles: 32,
}

const payloadBytes = 64

// workload is one entry of the benchmark's workload table.
type workload struct {
	name        string
	tcp         bool
	bounded     bool // cache servers capped at sizing.evictCapBytes
	sampleEvery int  // latency is taken on every n-th op
	newState    func(sz sizing, seed int64) state
}

// state is one deployment's worth of pre-generated inputs plus the
// expectations the oracle checks. populate runs once after deploy; run
// is one client's share of one epoch; verify runs after the last drain
// and returns the number of mismatches.
type state interface {
	populate(d *deployment, recs []*recorder, at vclock.Time) (vclock.Time, error)
	run(ci int, c *core.Client, rec *recorder, at vclock.Time) vclock.Time
	verify(d *deployment) int
	// samplePaths returns keys of this workload for the isolated
	// per-layer calls.
	samplePaths() []string
}

// workloads is the table BENCHMARK.json names, in its order; why each
// one exists is recorded there and in README.md.
var workloads = []workload{
	{name: "ckpt_rotate", sampleEvery: 8,
		newState: func(sz sizing, seed int64) state { return newCkpt(sz, seed) }},
	{name: "stat_hot", sampleEvery: 8,
		newState: func(sz sizing, seed int64) state { return newStat(sz, seed, sz.statHotOps) }},
	{name: "stat_evict", sampleEvery: 8, bounded: true,
		newState: func(sz sizing, seed int64) state { return newStat(sz, seed, sz.statEvictOps) }},
	{name: "app_mix_tcp", sampleEvery: 1, tcp: true,
		newState: func(sz sizing, seed int64) state { return newApp(sz, seed) }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// payloadAt says whether file index i carries inline data. The seed
// moves which quarter of the files it is, never how many.
func payloadAt(seed int64, i int) bool { return (i+int(seed&3))%4 == 0 }

func wantSize(seed int64, i int) int64 {
	if payloadAt(seed, i) {
		return payloadBytes
	}
	return 0
}

func makePayload(seed int64) []byte {
	b := make([]byte, payloadBytes)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func clientDir(ci int) string { return fmt.Sprintf("%s/c%d", workspace, ci) }

// ---- ckpt_rotate ----------------------------------------------------

// ckptState rotates checkpoint generations per client: each iteration
// creates file i of generation g (writing a payload to a quarter of
// them), removes file i of generation g-2, and rmdirs generation g-2
// once it is empty. After any whole number of generations exactly the
// newest two are live.
type ckptState struct {
	sz      sizing
	seed    int64
	payload []byte
	names   []string // "/f0000" ...
	cl      [clientCount]ckptClient
}

type ckptClient struct {
	gen   int
	paths [3][]string // generation g lives in paths[g%3]
	dirs  [3]string
}

func newCkpt(sz sizing, seed int64) *ckptState {
	s := &ckptState{sz: sz, seed: seed, payload: makePayload(seed)}
	s.names = make([]string, sz.ckptFilesPerGen)
	for i := range s.names {
		s.names[i] = fmt.Sprintf("/f%04d", i)
	}
	for ci := range s.cl {
		for slot := range s.cl[ci].paths {
			s.cl[ci].paths[slot] = make([]string, sz.ckptFilesPerGen)
		}
	}
	return s
}

func (s *ckptState) genDir(ci, gen int) string { return fmt.Sprintf("%s/g%06d", clientDir(ci), gen) }

func (s *ckptState) populate(d *deployment, recs []*recorder, at vclock.Time) (vclock.Time, error) {
	for ci, c := range d.clients {
		recs[ci].ops++
		done, err := c.Mkdir(at, clientDir(ci), 0o755)
		if err != nil {
			return at, err
		}
		at = done
	}
	return at, nil
}

func (s *ckptState) run(ci int, c *core.Client, rec *recorder, at vclock.Time) vclock.Time {
	cl := &s.cl[ci]
	var err error
	for n := 0; n < s.sz.ckptGensPerEpoch; n++ {
		g := cl.gen
		slot, old := g%3, (g+1)%3 // (g-2)%3 == (g+1)%3
		// One string build per file per generation, off the per-op path;
		// names differ per generation so the oracle can tell them apart.
		cl.dirs[slot] = s.genDir(ci, g)
		for i, name := range s.names {
			cl.paths[slot][i] = cl.dirs[slot] + name
		}
		t0 := rec.begin(opMkdir)
		at, err = c.Mkdir(at, cl.dirs[slot], 0o755)
		rec.end(t0, err)
		for i, p := range cl.paths[slot] {
			t0 = rec.begin(opCreate)
			at, err = c.Create(at, p, 0o644)
			rec.end(t0, err)
			if payloadAt(s.seed, i) {
				t0 = rec.begin(opWrite)
				at, err = c.WriteAt(at, p, 0, s.payload)
				rec.end(t0, err)
			}
			if g >= 2 {
				t0 = rec.begin(opRemove)
				at, err = c.Remove(at, cl.paths[old][i])
				rec.end(t0, err)
			}
		}
		if g >= 2 {
			t0 = rec.begin(opRmdir)
			at, err = c.Rmdir(at, cl.dirs[old])
			rec.end(t0, err)
		}
		cl.gen++
	}
	return at
}

func (s *ckptState) verify(d *deployment) int {
	bad := 0
	for ci := range s.cl {
		last := s.cl[ci].gen - 1
		for g := 0; g <= last; g++ {
			dir := s.genDir(ci, g)
			if g < last-1 {
				if d.cluster.OracleExists(dir) {
					bad++
				}
				continue
			}
			for i, name := range s.names {
				st, err := d.cluster.OracleLookup(dir + name)
				if err != nil || st.Type != fsapi.TypeFile || st.Size != wantSize(s.seed, i) {
					bad++
				}
			}
		}
	}
	return bad
}

func (s *ckptState) samplePaths() []string {
	out := make([]string, len(s.names))
	dir := s.genDir(0, 0)
	for i, name := range s.names {
		out[i] = dir + name
	}
	return out
}

// ---- stat_hot / stat_evict -------------------------------------------

// statState is a fixed namespace of statDirs×statFilesPerDir files that
// clients stat uniformly at random: 7/8 single Stat, 1/8 StatMulti of
// statMultiKeys siblings.
type statState struct {
	sz    sizing
	seed  int64
	ops   int
	paths []string // dir-major: paths[dir*filesPerDir+file]
	dirs  []string
	rng   [clientCount]uint64
}

const statMultiKeys = 16

func newStat(sz sizing, seed int64, ops int) *statState {
	s := &statState{sz: sz, seed: seed, ops: ops}
	for dir := 0; dir < sz.statDirs; dir++ {
		dp := fmt.Sprintf("%s/d%02d", workspace, dir)
		s.dirs = append(s.dirs, dp)
		for f := 0; f < sz.statFilesPerDir; f++ {
			s.paths = append(s.paths, fmt.Sprintf("%s/f%04d", dp, f))
		}
	}
	for ci := range s.rng {
		s.rng[ci] = uint64(seed)*0x9E3779B97F4A7C15 + uint64(ci) + 1
	}
	return s
}

// splitmix64 advances the client's generator; ~1 ns, so the op stream
// needs no pre-generated index array.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// populate creates the namespace on the DFS directly, as files that
// existed before the region started, then lists every directory through
// the region: Readdir bulk-loads the children into the cache, all of
// them when it is unbounded and as many as fit when it is not. (Creating
// them through the region instead fails on a bounded cache: WriteAt
// returns ErrOutOfSpace without running an eviction round.)
func (s *statState) populate(d *deployment, recs []*recorder, at vclock.Time) (vclock.Time, error) {
	payload := makePayload(s.seed)
	pre := d.cluster.NewClient("node0", appCred, 4096, time.Hour)
	var err error
	for dir, dp := range s.dirs {
		if at, err = pre.Mkdir(at, dp, 0o755); err != nil {
			return at, err
		}
		for f := 0; f < s.sz.statFilesPerDir; f++ {
			p := s.paths[dir*s.sz.statFilesPerDir+f]
			if at, err = pre.Create(at, p, 0o644); err != nil {
				return at, err
			}
			if payloadAt(s.seed, f) {
				if at, err = pre.WriteAt(at, p, 0, payload); err != nil {
					return at, err
				}
			}
		}
	}
	for _, dp := range s.dirs {
		recs[0].ops++
		ents, done, err := d.clients[0].Readdir(at, dp)
		if err != nil {
			return at, err
		}
		if len(ents) != s.sz.statFilesPerDir {
			return at, fmt.Errorf("readdir %s: %d entries, want %d", dp, len(ents), s.sz.statFilesPerDir)
		}
		at = done
	}
	return at, nil
}

func (s *statState) run(ci int, c *core.Client, rec *recorder, at vclock.Time) vclock.Time {
	rng := &s.rng[ci]
	perDir := s.sz.statFilesPerDir
	total := uint64(len(s.paths))
	span := uint64(perDir - statMultiKeys + 1)
	for n := 0; n < s.ops; n++ {
		r := splitmix64(rng)
		if r&7 == 0 {
			dir := int((r >> 3) % uint64(s.sz.statDirs))
			first := int((r >> 24) % span)
			keys := s.paths[dir*perDir+first : dir*perDir+first+statMultiKeys]
			t0 := rec.begin(opStatMulti)
			res, done, err := c.StatMulti(at, keys)
			rec.end(t0, err)
			at = done
			for k, sr := range res {
				if sr.Err != nil || sr.Stat.Type != fsapi.TypeFile || sr.Stat.Size != wantSize(s.seed, first+k) {
					rec.mismatch++
				}
			}
			continue
		}
		idx := int((r >> 3) % total)
		t0 := rec.begin(opStat)
		st, done, err := c.Stat(at, s.paths[idx])
		rec.end(t0, err)
		at = done
		if st.Type != fsapi.TypeFile || st.Size != wantSize(s.seed, idx%perDir) {
			rec.mismatch++
		}
	}
	return at
}

// verify: the namespace is read-only after populate, so every file must
// still be there with its size.
func (s *statState) verify(d *deployment) int {
	bad := 0
	for i, p := range s.paths {
		st, err := d.cluster.OracleLookup(p)
		if err != nil || st.Size != wantSize(s.seed, i%s.sz.statFilesPerDir) {
			bad++
		}
	}
	return bad
}

func (s *statState) samplePaths() []string { return s.paths[:s.sz.statFilesPerDir] }

// ---- app_mix_tcp -----------------------------------------------------

// appState is an mdtest-like cycle in a private directory per client:
// mkdir, appFiles creates, 2×appFiles stats, readdir, appRenames
// renames, appFiles removes, rmdir. The directory name is reused every
// cycle, so every path is generated once here.
type appState struct {
	sz      sizing
	cl      [clientCount]appClient
	statOrd []int // seeded order of the 2×appFiles stats
	renamed []int // seeded choice of files that get renamed
}

type appClient struct {
	work    string
	files   []string
	renames []string // renames[j] is the new name of files[renamed[j]]
	final   []string // names present when the removes start
}

const appRenames = 4

func newApp(sz sizing, seed int64) *appState {
	s := &appState{sz: sz}
	rng := rand.New(rand.NewSource(seed))
	s.renamed = rng.Perm(sz.appFiles)[:appRenames]
	for k := 0; k < 2*sz.appFiles; k++ {
		s.statOrd = append(s.statOrd, k%sz.appFiles)
	}
	rng.Shuffle(len(s.statOrd), func(i, j int) { s.statOrd[i], s.statOrd[j] = s.statOrd[j], s.statOrd[i] })
	for ci := range s.cl {
		cl := &s.cl[ci]
		cl.work = clientDir(ci) + "/work"
		for f := 0; f < sz.appFiles; f++ {
			cl.files = append(cl.files, fmt.Sprintf("%s/f%02d", cl.work, f))
		}
		cl.final = append([]string(nil), cl.files...)
		for j, f := range s.renamed {
			cl.renames = append(cl.renames, fmt.Sprintf("%s/r%02d", cl.work, j))
			cl.final[f] = cl.renames[j]
		}
	}
	return s
}

func (s *appState) populate(d *deployment, recs []*recorder, at vclock.Time) (vclock.Time, error) {
	for ci, c := range d.clients {
		recs[ci].ops++
		done, err := c.Mkdir(at, clientDir(ci), 0o755)
		if err != nil {
			return at, err
		}
		at = done
	}
	return at, nil
}

func (s *appState) run(ci int, c *core.Client, rec *recorder, at vclock.Time) vclock.Time {
	cl := &s.cl[ci]
	var err error
	for n := 0; n < s.sz.appCycles; n++ {
		t0 := rec.begin(opMkdir)
		at, err = c.Mkdir(at, cl.work, 0o755)
		rec.end(t0, err)
		for _, p := range cl.files {
			t0 = rec.begin(opCreate)
			at, err = c.Create(at, p, 0o644)
			rec.end(t0, err)
		}
		for _, f := range s.statOrd {
			t0 = rec.begin(opStat)
			st, done, err := c.Stat(at, cl.files[f])
			rec.end(t0, err)
			at = done
			if st.Type != fsapi.TypeFile || st.Size != 0 {
				rec.mismatch++
			}
		}
		t0 = rec.begin(opReaddir)
		ents, done, err := c.Readdir(at, cl.work)
		rec.end(t0, err)
		at = done
		if len(ents) != len(cl.files) {
			rec.mismatch++
		}
		for j, f := range s.renamed {
			t0 = rec.begin(opRename)
			at, err = c.Rename(at, cl.files[f], cl.renames[j])
			rec.end(t0, err)
		}
		for _, p := range cl.final {
			t0 = rec.begin(opRemove)
			at, err = c.Remove(at, p)
			rec.end(t0, err)
		}
		t0 = rec.begin(opRmdir)
		at, err = c.Rmdir(at, cl.work)
		rec.end(t0, err)
	}
	return at
}

// verify: every cycle cleans up after itself, so each client directory
// must exist and be empty.
func (s *appState) verify(d *deployment) int {
	bad := 0
	for ci := range s.cl {
		ents, err := d.cluster.MDS.Tree().Readdir(clientDir(ci))
		if err != nil || len(ents) != 0 {
			bad++
		}
		if d.cluster.OracleExists(s.cl[ci].work) {
			bad++
		}
	}
	return bad
}

func (s *appState) samplePaths() []string { return s.cl[0].files }
