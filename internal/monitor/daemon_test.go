package monitor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

func newTestNode(t testing.TB) (*kernel.Kernel, *simtime.Scheduler) {
	t.Helper()
	s := simtime.NewScheduler()
	cfg := kernel.DefaultConfig()
	cfg.TotalMemory = 256 << 20
	cfg.SwapBytes = 128 << 20
	k := kernel.New(s, cfg)
	return k, s
}

// TestConfigValidateRanges: NaN and out-of-range fractions are rejected by
// field name; the default and a zero cache target are valid.
func TestConfigValidateRanges(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"AdvThreshold", func(c *Config) { c.AdvThreshold = math.NaN() }},
		{"FileCacheTarget", func(c *Config) { c.FileCacheTarget = math.NaN() }},
		{"FileCacheTarget", func(c *Config) { c.FileCacheTarget = -3 }},
		{"FileCacheTarget", func(c *Config) { c.FileCacheTarget = 1 }},
		{"FileCacheTarget", func(c *Config) { c.FileCacheTarget = math.Inf(1) }},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: got %v, want an error naming %s", cfg, err, tc.field)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	cfg.FileCacheTarget = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero FileCacheTarget: %v", err)
	}
}

func TestRegistrySets(t *testing.T) {
	r := NewRegistry()
	r.AddLatencyCritical(1)
	r.AddBatch(2)
	r.AddBatch(3)
	if !r.IsLatencyCritical(1) || r.IsLatencyCritical(2) {
		t.Fatal("latency-critical set wrong")
	}
	if !r.IsBatch(2) || !r.IsBatch(3) || r.IsBatch(1) {
		t.Fatal("batch set wrong")
	}
	r.RemoveLatencyCritical(1)
	if r.IsLatencyCritical(1) || r.LatencyCriticalCount() != 0 {
		t.Fatal("remove latency-critical failed")
	}
}

func TestDaemonIdleBelowThreshold(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()

	batch := k.CreateProcess("batch")
	reg.AddBatch(batch.PID)
	f := k.CreateFile("input.dat", 2048, batch.PID)
	k.ReadFile(s.Now(), f, 2048)

	s.Advance(simtime.Second)
	if d.Stats().AdviseCalls != 0 {
		t.Fatal("daemon must not advise below adv_thr")
	}
	if f.CachedPages() != 2048 {
		t.Fatal("file cache must be untouched below adv_thr")
	}
	if d.Stats().Scans == 0 {
		t.Fatal("daemon must scan periodically")
	}
}

func TestDaemonReleasesBatchFileCacheUnderPressure(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()

	batch := k.CreateProcess("batch")
	reg.AddBatch(batch.PID)
	small := k.CreateFile("small.dat", 1024, batch.PID)
	big := k.CreateFile("big.dat", 8192, batch.PID)
	k.ReadFile(s.Now(), small, 1024)
	k.ReadFile(s.Now(), big, 8192)

	// Push node usage over adv_thr with anon memory.
	hog := k.CreateProcess("hog")
	target := int64(float64(k.TotalPages())*0.95) - (k.TotalPages() - k.FreePages())
	r, _ := k.Mmap(s.Now(), hog, target)
	k.FaultIn(s.Now(), r, target)

	s.Advance(simtime.Second)
	st := d.Stats()
	if st.AdviseCalls == 0 || st.PagesReleased == 0 {
		t.Fatalf("daemon must advise under pressure: %+v", st)
	}
	// Largest file first: big.dat must be dropped before small.dat is
	// considered; with the target met after big.dat, small.dat survives.
	if big.CachedPages() != 0 {
		t.Fatal("largest file must be released first")
	}
	if small.CachedPages() == 0 {
		t.Fatal("small file released although target was already met")
	}
	k.CheckInvariants()
}

func TestDaemonStopsAtTarget(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	cfg := DefaultConfig()
	cfg.FileCacheTarget = 1.0 / 16 // 4096 of the node's 65536 pages
	d := NewDaemon(k, reg, cfg)
	defer d.Stop()

	batch := k.CreateProcess("batch")
	reg.AddBatch(batch.PID)
	var files []*kernel.File
	for _, name := range []string{"c.dat", "a.dat", "b.dat"} {
		f := k.CreateFile(name, 2048, batch.PID)
		k.ReadFile(s.Now(), f, 2048)
		files = append(files, f)
	}
	hog := k.CreateProcess("hog")
	target := int64(float64(k.TotalPages())*0.95) - (k.TotalPages() - k.FreePages())
	r, _ := k.Mmap(s.Now(), hog, target)
	k.FaultIn(s.Now(), r, target)

	s.Advance(cfg.Period)
	// Equal sizes go in name order, and releasing a.dat lands the batch
	// cache exactly on target, which is enough.
	if st := d.Stats(); st.AdviseCalls != 1 || st.PagesReleased != 2048 {
		t.Fatalf("daemon stats %+v, want one advise of 2048 pages", st)
	}
	if files[1].CachedPages() != 0 || files[0].CachedPages() != 2048 || files[2].CachedPages() != 2048 {
		t.Fatalf("cached c/a/b = %d/%d/%d, want 2048/0/2048",
			files[0].CachedPages(), files[1].CachedPages(), files[2].CachedPages())
	}
}

func TestDaemonIgnoresNonBatchFiles(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()

	svc := k.CreateProcess("redis") // not registered as batch
	f := k.CreateFile("service.rdb", 4096, svc.PID)
	k.ReadFile(s.Now(), f, 4096)

	hog := k.CreateProcess("hog")
	target := int64(float64(k.TotalPages())*0.95) - (k.TotalPages() - k.FreePages())
	r, _ := k.Mmap(s.Now(), hog, target)
	k.FaultIn(s.Now(), r, target)

	s.Advance(simtime.Second)
	if f.CachedPages() != 4096 {
		t.Fatal("daemon must never touch non-batch files")
	}
	if d.Stats().PagesReleased != 0 {
		t.Fatal("nothing batch-owned to release")
	}
}

func TestDaemonUtilizationSmall(t *testing.T) {
	k, s := newTestNode(t)
	reg := NewRegistry()
	d := NewDaemon(k, reg, DefaultConfig())
	defer d.Stop()
	s.Advance(10 * simtime.Second)
	util := d.Utilization(s.Now())
	// §5.5 reports ~2.4% CPU for the daemon; idle scanning must be well
	// under that.
	if util > 0.024 {
		t.Fatalf("daemon utilisation %.3f%% too high", util*100)
	}
}

func TestDaemonInvalidConfigPanics(t *testing.T) {
	k, _ := newTestNode(t)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid daemon config must panic")
		}
	}()
	NewDaemon(k, NewRegistry(), Config{Period: 0})
}

// advice is one fadvise(DONTNEED) a scan issued: the file and the pages it
// released.
type advice struct {
	file     string
	released int64
}

// filesOwnedBy returns the files tagged with the given owner PID, sorted by
// descending size, names breaking ties.
func filesOwnedBy(k *kernel.Kernel, pid kernel.PID) []*kernel.File {
	var out []*kernel.File
	for _, f := range k.Files() {
		if f.OwnerPID == pid {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SizePages() != out[j].SizePages() {
			return out[i].SizePages() > out[j].SizePages()
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// referenceTick is the exactness oracle for Daemon.tick, the literal per-PID
// scan: it gathers the batch files PID by PID with filesOwnedBy, and
// recomputes the batch cache the same way before every file. It logs each
// advise call to log.
func referenceTick(k *kernel.Kernel, reg *Registry, cfg Config, st *Stats, log *[]advice) func(simtime.Time) simtime.Duration {
	batchCachedPages := func() int64 {
		var n int64
		for pid := range reg.batch {
			for _, f := range filesOwnedBy(k, pid) {
				n += f.CachedPages()
			}
		}
		return n
	}
	return func(now simtime.Time) simtime.Duration {
		st.Scans++
		busy := 50 * simtime.Microsecond
		if k.UsedFraction() < cfg.AdvThreshold {
			return busy
		}
		var files []*kernel.File
		for pid := range reg.batch {
			files = append(files, filesOwnedBy(k, pid)...)
		}
		sort.Slice(files, func(i, j int) bool {
			if files[i].CachedPages() != files[j].CachedPages() {
				return files[i].CachedPages() > files[j].CachedPages()
			}
			return files[i].Name < files[j].Name
		})
		targetPages := int64(cfg.FileCacheTarget * float64(k.TotalPages()))
		at := now.Add(busy)
		for _, f := range files {
			if batchCachedPages() <= targetPages {
				break
			}
			if f.CachedPages() == 0 {
				continue
			}
			released, cost := k.FadviseDontNeed(at, f)
			*log = append(*log, advice{f.Name, released})
			busy += cost
			at = at.Add(cost)
			st.AdviseCalls++
			st.PagesReleased += released
		}
		return busy
	}
}

// oracleNode is one of the twin nodes the exactness test drives in
// lockstep: same kernel, registry and workload, scanned either by
// Daemon.tick or by referenceTick.
type oracleNode struct {
	k     *kernel.Kernel
	s     *simtime.Scheduler
	reg   *Registry
	pids  []kernel.PID
	files []*kernel.File
	log   []advice
}

// newOracleNode builds a node with 400 processes, 300 of them registered as
// batch jobs and 100 of those exited, 200 files of four sizes (so equal
// cache sizes are common) owned across all 400 PIDs, and an anonymous hog
// holding hogFraction of memory.
func newOracleNode(t *testing.T, hogFraction float64) *oracleNode {
	k, s := newTestNode(t)
	n := &oracleNode{k: k, s: s, reg: NewRegistry()}
	var procs []*kernel.Process
	for i := 0; i < 400; i++ {
		p := k.CreateProcess(fmt.Sprintf("proc-%03d", i))
		procs = append(procs, p)
		n.pids = append(n.pids, p.PID)
		if i < 300 {
			n.reg.AddBatch(p.PID)
		}
	}
	rng := rand.New(rand.NewPCG(1, 0))
	for i := 0; i < 200; i++ {
		n.files = append(n.files, n.createFile(rng, fmt.Sprintf("file-%03d.dat", i)))
	}
	for i := 0; i < 300; i += 3 {
		k.ExitProcess(procs[i])
	}
	hog := k.CreateProcess("hog")
	r, _ := k.Mmap(s.Now(), hog, int64(hogFraction*float64(k.TotalPages())))
	k.FaultIn(s.Now(), r, r.Pages())
	return n
}

func (n *oracleNode) createFile(rng *rand.Rand, name string) *kernel.File {
	return n.k.CreateFile(name, 16*(1+rng.Int64N(4)), n.pids[rng.IntN(len(n.pids))])
}

// churn is one period of workload between daemon ticks: full and partial
// reads, dirtying writes, one file replaced, and registry churn that
// registers live, dead and never-created PIDs. Every choice comes from rng,
// so twins fed the same stream stay in lockstep.
func (n *oracleNode) churn(round int, rng *rand.Rand) {
	now := n.s.Now()
	for i := 0; i < 12; i++ {
		f := n.files[rng.IntN(len(n.files))]
		pages := f.SizePages()
		if rng.IntN(3) == 0 {
			pages = 1 + rng.Int64N(pages)
		}
		n.k.ReadFile(now, f, pages)
	}
	for i := 0; i < 3; i++ {
		f := n.files[rng.IntN(len(n.files))]
		n.k.WriteFile(now, f, 1+rng.Int64N(f.SizePages()), false)
	}
	i := rng.IntN(len(n.files))
	n.k.DeleteFile(n.files[i])
	n.files[i] = n.createFile(rng, fmt.Sprintf("round-%03d.dat", round))
	n.reg.AddBatch(n.pids[rng.IntN(len(n.pids))])
	delete(n.reg.batch, n.pids[rng.IntN(len(n.pids))])
	if rng.IntN(4) == 0 {
		n.reg.AddBatch(kernel.PID(100000 + round))
	}
}

// TestDaemonTickMatchesReferenceScan holds the one-pass tick to the old
// per-PID scan on twin nodes: the same advise sequence, the same daemon and
// kernel counters, and the same file state after every tick.
func TestDaemonTickMatchesReferenceScan(t *testing.T) {
	rounds := 150
	if testing.Short() {
		rounds = 40
	}
	drain := DefaultConfig()
	drain.AdvThreshold = 0.85
	drain.FileCacheTarget = 0 // every tick under pressure drops all batch cache
	for _, tc := range []struct {
		name string
		cfg  Config
		hog  float64
	}{
		{"default", DefaultConfig(), 0.82},
		{"drain", drain, 0.8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, ref := newOracleNode(t, tc.hog), newOracleNode(t, tc.hog)
			d := NewDaemon(fast.k, fast.reg, tc.cfg)
			defer d.Stop()
			var dirtyAdvised, ties int
			d.advise = func(at simtime.Time, f *kernel.File) (int64, simtime.Duration) {
				if f.DirtyPages() > 0 {
					dirtyAdvised++
				}
				released, cost := fast.k.FadviseDontNeed(at, f)
				fast.log = append(fast.log, advice{f.Name, released})
				return released, cost
			}
			var refStats Stats
			refTask := simtime.NewPeriodicTask(ref.s, tc.cfg.Period,
				referenceTick(ref.k, ref.reg, tc.cfg, &refStats, &ref.log))
			defer refTask.Stop()

			for round := 0; round < rounds; round++ {
				before := len(fast.log)
				for _, n := range []*oracleNode{fast, ref} {
					n.churn(round, rand.New(rand.NewPCG(2, uint64(round))))
					n.s.Advance(tc.cfg.Period)
					n.k.CheckInvariants()
				}
				if !slices.Equal(fast.log, ref.log) {
					t.Fatalf("round %d: advise sequence diverged:\n fast %v\n ref  %v",
						round, fast.log[before:], ref.log[min(before, len(ref.log)):])
				}
				if d.Stats() != refStats || d.task.Busy != refTask.Busy {
					t.Fatalf("round %d: daemon stats %+v busy %v, reference %+v busy %v",
						round, d.Stats(), d.task.Busy, refStats, refTask.Busy)
				}
				if fast.k.Stats() != ref.k.Stats() || fast.k.FreePages() != ref.k.FreePages() {
					t.Fatalf("round %d: kernel stats %+v free %d, reference %+v free %d", round,
						fast.k.Stats(), fast.k.FreePages(), ref.k.Stats(), ref.k.FreePages())
				}
				for i, f := range fast.files {
					g := ref.files[i]
					if f.Name != g.Name || f.CachedPages() != g.CachedPages() || f.DirtyPages() != g.DirtyPages() {
						t.Fatalf("round %d: file %s cached %d dirty %d, reference %s cached %d dirty %d",
							round, f.Name, f.CachedPages(), f.DirtyPages(), g.Name, g.CachedPages(), g.DirtyPages())
					}
				}
				for i := before + 1; i < len(fast.log); i++ {
					if fast.log[i].released == fast.log[i-1].released {
						ties++
					}
				}
			}
			// The drive must reach the cases the rewrite argues about.
			st := d.Stats()
			t.Logf("scans %d, advise calls %d, pages %d, dirty advised %d, equal-size neighbours %d",
				st.Scans, st.AdviseCalls, st.PagesReleased, dirtyAdvised, ties)
			if st.AdviseCalls < int64(rounds) || dirtyAdvised == 0 || ties == 0 {
				t.Fatalf("drive too weak: %+v, %d dirty advised, %d ties", st, dirtyAdvised, ties)
			}
		})
	}
}

// BenchmarkDaemonTick times one pressured tick at the end state of the
// Table 1 co-location run: about 1,600 registered batch PIDs, most of them
// exited, and 200 files, 40 of them without cache. Each tick releases the
// four largest files, which takes the batch cache back to target; the loop
// then re-reads them so every iteration starts from the same state.
func BenchmarkDaemonTick(b *testing.B) {
	k, s := newTestNode(b)
	reg := NewRegistry()
	var owners []kernel.PID
	for i := 0; i < 1600; i++ {
		p := k.CreateProcess(fmt.Sprintf("batch-%04d", i))
		reg.AddBatch(p.PID)
		if i%8 == 0 {
			owners = append(owners, p.PID)
		}
		if i%16 != 0 {
			k.ExitProcess(p)
		}
	}
	const filePages = 64
	var batchPages int64
	for i := 0; i < 200; i++ {
		f := k.CreateFile(fmt.Sprintf("input-%03d.dat", i), filePages, owners[i])
		if i < 160 {
			k.ReadFile(s.Now(), f, filePages)
			batchPages += filePages
		}
	}
	hog := k.CreateProcess("hog")
	r, _ := k.Mmap(s.Now(), hog, k.TotalPages()*95/100-(k.TotalPages()-k.FreePages()))
	k.FaultIn(s.Now(), r, r.Pages())

	cfg := DefaultConfig()
	cfg.FileCacheTarget = float64(batchPages-4*filePages) / float64(k.TotalPages())
	d := NewDaemon(k, reg, cfg)
	defer d.Stop()
	var released []*kernel.File
	d.advise = func(at simtime.Time, f *kernel.File) (int64, simtime.Duration) {
		released = append(released, f)
		return k.FadviseDontNeed(at, f)
	}
	now := s.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(cfg.Period)
		d.tick(now)
		if len(released) != 4 {
			b.Fatalf("tick released %d files, want 4", len(released))
		}
		for _, f := range released {
			k.ReadFile(now, f, filePages)
		}
		released = released[:0]
	}
}
