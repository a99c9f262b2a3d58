package workload

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload/randgen"
)

// PressureKind selects which Figure 3 regime a generator produces.
type PressureKind int

const (
	// PressureAnon reproduces "anonymous page pressure": a process keeps
	// allocating anonymous memory, so reclaim must swap to the HDD.
	PressureAnon PressureKind = iota + 1
	// PressureFile reproduces "file cache pressure": large files occupy
	// the cache and anonymous memory squeezes free pages, so reclaim can
	// mostly drop clean file pages.
	PressureFile
)

func (p PressureKind) String() string {
	switch p {
	case PressureAnon:
		return "anon"
	case PressureFile:
		return "file"
	default:
		return fmt.Sprintf("PressureKind(%d)", int(p))
	}
}

// PressureConfig tunes a generator.
type PressureConfig struct {
	Kind PressureKind
	// FileBytes is the file-cache footprint for PressureFile (the paper
	// loads 10 GB of files).
	FileBytes int64
	// FreeBytes is the free-memory level the initial fill leaves behind.
	// The paper's generators allocate "until the available memory in the
	// node becomes about 300 MB" and then hold their footprint: the
	// victim workload first drains this buffer, then runs against
	// kswapd's reclaim supply — a transient, not a pinned steady state.
	FreeBytes int64
	// Period is the background interval (the file generator re-reads its
	// working set at this cadence).
	Period simtime.Duration
}

// DefaultPressureConfig returns the evaluation settings for the given kind
// (a 300 MB residual buffer, per §2.2/§5.2).
func DefaultPressureConfig(kind PressureKind) PressureConfig {
	return PressureConfig{
		Kind:      kind,
		FileBytes: 10 << 30,
		FreeBytes: 300 << 20,
		Period:    2 * simtime.Millisecond,
	}
}

// Validate reports whether the configuration is well-formed, naming the
// offending field so config loaders can surface the message verbatim.
func (cfg PressureConfig) Validate() error {
	if cfg.Kind != PressureAnon && cfg.Kind != PressureFile {
		return fmt.Errorf("workload: pressure Kind must be PressureAnon or PressureFile (got %v)", cfg.Kind)
	}
	if cfg.FreeBytes <= 0 {
		return fmt.Errorf("workload: pressure FreeBytes must be > 0 (got %d)", cfg.FreeBytes)
	}
	if cfg.Period <= 0 {
		return fmt.Errorf("workload: pressure Period must be > 0 (got %v)", cfg.Period)
	}
	if cfg.Kind == PressureFile && cfg.FileBytes <= 0 {
		return fmt.Errorf("workload: file pressure FileBytes must be > 0 (got %d)", cfg.FileBytes)
	}
	return nil
}

// pressureFiles is the number of files the file generator splits
// FileBytes into; it reads each one whole when it starts.
const pressureFiles = 10

// CheckNode reports whether a node of totalBytes of memory can carry the
// generator: the initial fill leaves FreeBytes free, so a node no larger
// than that leaves it nothing to take, and the file generator's first read
// of each file must fit in the node's memory.
func (cfg PressureConfig) CheckNode(totalBytes int64) error {
	if totalBytes <= cfg.FreeBytes {
		return fmt.Errorf("workload: %v pressure needs a node above its %d MB free buffer (node has %d MB)",
			cfg.Kind, cfg.FreeBytes>>20, totalBytes>>20)
	}
	if file := cfg.FileBytes / pressureFiles; cfg.Kind == PressureFile && totalBytes < file {
		return fmt.Errorf("workload: file pressure reads %d MB files whole, more than the node's %d MB",
			file>>20, totalBytes>>20)
	}
	return nil
}

// Pressure is a running pressure generator: a simulated co-tenant process
// (plus files for the file variant) that consumes memory down to the
// watermark region and keeps it there, re-consuming whatever reclaim frees.
type Pressure struct {
	k     *kernel.Kernel
	cfg   PressureConfig
	proc  *kernel.Process
	task  *simtime.PeriodicTask
	files []*kernel.File
	// rng is the generator's own stream — (kernel.StreamPressure, PID)
	// under the node seed: its draws never shift the kernel's jitter
	// sequence, nor a coexisting generator's, and vice versa.
	rng *randgen.Stream

	// AnonPages counts pages the generator has faulted in.
	AnonPages int64
}

// PID returns the generator process's PID (the monitor daemon registers it
// as a batch job so proactive reclamation may target its files).
func (p *Pressure) PID() kernel.PID { return p.proc.PID }

// StartPressure launches a generator on the node. It performs the initial
// fill immediately (consuming the node's free memory down to the target)
// and then maintains the level each period. Stop releases the generator's
// process.
func StartPressure(k *kernel.Kernel, cfg PressureConfig) *Pressure {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Pressure{
		k:    k,
		cfg:  cfg,
		proc: k.CreateProcess(fmt.Sprintf("pressure-%v", cfg.Kind)),
	}
	// Keyed by PID so coexisting generators on one node draw distinct
	// sequences (PID assignment is itself deterministic).
	p.rng = k.NewStream(kernel.StreamPressure, uint64(p.proc.PID))
	s := k.Scheduler()
	if cfg.Kind == PressureFile {
		// Load the working files: they fill the page cache and stay there
		// after reading (the paper's generator repeatedly reads 10 GB of
		// files). They outlive Stop, so the names carry the generator's
		// PID: a later generator on the node must not collide with them.
		pages := cfg.FileBytes / k.PageSize()
		for i := 0; i < pressureFiles; i++ {
			f := k.CreateFile(fmt.Sprintf("pressure-%d-file-%d", p.proc.PID, i), pages/pressureFiles, p.proc.PID)
			k.ReadFile(s.Now(), f, pages/pressureFiles)
			p.files = append(p.files, f)
		}
	}
	// Initial fill: consume anonymous memory until the configured residual
	// buffer remains, then hold the footprint. The buffer never goes below
	// 1.5× the low watermark: a real allocating process cannot leave the
	// node under the watermark floor — reclaim would push it back.
	target := cfg.FreeBytes / k.PageSize()
	if _, low, _ := k.Watermarks(); target < low*3/2 {
		target = low * 3 / 2
	}
	if excess := k.FreePages() - target; excess > 0 {
		r, _ := k.Mmap(s.Now(), p.proc, excess)
		k.FaultIn(s.Now(), r, excess)
		p.AnonPages += excess
	}
	p.task = simtime.NewPeriodicTask(s, cfg.Period, func(now simtime.Time) simtime.Duration {
		// The file generator keeps re-reading its working set, so dropped
		// cache (reclaim or the monitor daemon's fadvise) is reloaded over
		// time — the tug-of-war a real co-tenant produces. File choice is
		// a draw from the generator's own stream: irregular, like a real
		// co-tenant's access pattern, yet a pure function of the seed.
		if len(p.files) > 0 {
			f := p.files[p.rng.IntN(len(p.files))]
			p.k.ReadFile(now, f, f.SizePages()/8)
		}
		return 20 * simtime.Microsecond
	})
	return p
}

// Stop halts maintenance and exits the generator process, releasing its
// anonymous memory (file cache stays, as on a real node).
func (p *Pressure) Stop() {
	p.task.Stop()
	p.k.ExitProcess(p.proc)
}
