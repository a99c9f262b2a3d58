package batch

import (
	"testing"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
)

func newNode(t *testing.T) (*kernel.Kernel, *simtime.Scheduler) {
	t.Helper()
	s := simtime.NewScheduler()
	cfg := kernel.DefaultConfig()
	cfg.TotalMemory = 2 << 30
	cfg.SwapBytes = 2 << 30
	return kernel.New(s, cfg), s
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetBytes = 512 << 20
	cfg.InputBytes = 64 << 20
	cfg.WorkDuration = 2 * simtime.Second
	cfg.TickPeriod = 50 * simtime.Millisecond
	cfg.RampTicks = 10
	return cfg
}

func TestRunnerStartsConfiguredJobs(t *testing.T) {
	k, _ := newNode(t)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	if got := len(r.PIDs()); got != 3*8 {
		t.Fatalf("containers = %d, want 24", got)
	}
	if got := len(r.InputFilePIDs()); got != 3 {
		t.Fatalf("input files = %d, want 3", got)
	}
}

func TestContainersRampMemoryAndCache(t *testing.T) {
	k, s := newNode(t)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	s.Advance(simtime.Second)
	usedPages := k.TotalPages() - k.FreePages()
	if usedPages*k.PageSize() < 256<<20 {
		t.Fatalf("batch used only %d MB after ramp", usedPages*k.PageSize()>>20)
	}
	if k.FileCachePages() == 0 {
		t.Fatal("input streaming must populate the file cache")
	}
	k.CheckInvariants()
}

func TestJobsCompleteAndChurn(t *testing.T) {
	k, s := newNode(t)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	s.Advance(7 * simtime.Second)
	if r.Completed < 3 {
		t.Fatalf("completed %d jobs in 7s, want ≥ 3 (2s jobs × 3 slots)", r.Completed)
	}
	// Fresh jobs replaced the finished ones.
	if got := len(r.PIDs()); got != 24 {
		t.Fatalf("live containers = %d, want 24", got)
	}
	k.CheckInvariants()
}

func TestFinishedJobLeavesFileCache(t *testing.T) {
	k, s := newNode(t)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	s.Advance(5 * simtime.Second)
	if r.Completed == 0 {
		t.Skip("no job finished yet")
	}
	// Retired input files remain with cache resident — §2.3's pathology.
	if len(r.retired) == 0 {
		t.Fatal("no retired inputs tracked")
	}
	var lingering int64
	for _, f := range r.retired {
		if !f.Deleted() {
			lingering += f.CachedPages()
		}
	}
	if lingering == 0 {
		t.Fatal("finished jobs' file cache must linger")
	}
	k.CheckInvariants()
}

func TestKillingPolicyTriggersUnderPressure(t *testing.T) {
	k, s := newNode(t)
	cfg := testConfig()
	cfg.TargetBytes = 4 << 30 // 2× node memory: guaranteed crunch
	r := NewRunner(k, cfg)
	defer r.Stop()
	r.Killing = true
	s.Advance(5 * simtime.Second)
	if r.Kills == 0 && r.OOMKills == 0 {
		t.Fatal("killing policy never fired under 200% pressure")
	}
	k.CheckInvariants()
}

func TestOOMHandlerKillsNewestContainer(t *testing.T) {
	k, s := newNode(t)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	s.Advance(200 * simtime.Millisecond)
	before := len(r.PIDs())
	if !r.HandleOOM(k, s.Now(), 10) {
		t.Fatal("OOM handler must make progress with live containers")
	}
	if got := len(r.PIDs()); got != before-1 {
		t.Fatalf("live containers %d, want %d", got, before-1)
	}
	if r.OOMKills != 1 {
		t.Fatalf("OOM kills = %d, want 1", r.OOMKills)
	}
	k.CheckInvariants()
}

// TestInputFilePIDsNameDeadOwners: each job's input file is owned by its
// first container, so while every container lives the input-file PIDs are
// a subset of PIDs(). Only a kill of a first container makes
// InputFilePIDs name a PID that PIDs() does not: the dead owner, which
// stays the file's owner after the tick restarts its container.
func TestInputFilePIDsNameDeadOwners(t *testing.T) {
	k, s := newNode(t)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	s.Advance(200 * simtime.Millisecond)
	notLive := func() []kernel.PID {
		live := make(map[kernel.PID]bool)
		for _, pid := range r.PIDs() {
			live[pid] = true
		}
		var out []kernel.PID
		for _, pid := range r.InputFilePIDs() {
			if !live[pid] {
				out = append(out, pid)
			}
		}
		return out
	}
	if got := notLive(); len(got) != 0 {
		t.Fatalf("input-file PIDs %v are not live containers before any kill", got)
	}

	owner := r.jobs[0].containers[0].proc
	k.ExitProcess(owner)
	s.Advance(2 * r.cfg.TickPeriod) // a tick restarts the container under a new PID
	if got := len(r.PIDs()); got != 3*8 {
		t.Fatalf("live containers = %d after the restart, want 24", got)
	}
	if got := notLive(); len(got) != 1 || got[0] != owner.PID {
		t.Fatalf("input-file PIDs outside PIDs() = %v after killing first container %d, want just it", got, owner.PID)
	}
	k.CheckInvariants()
}

// TestNewRunnerOwnsOOM: NewRunner installs the runner as the kernel's OOM
// handler, so with no SetOOMHandler call an allocation past a swapless
// node's memory is resolved by killing batch containers.
func TestNewRunnerOwnsOOM(t *testing.T) {
	s := simtime.NewScheduler()
	kcfg := kernel.DefaultConfig()
	kcfg.TotalMemory = 2 << 30
	kcfg.SwapBytes = 0 // batch anon cannot be swapped out
	k := kernel.New(s, kcfg)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	s.Advance(simtime.Second) // ramp the 512 MB of batch anon
	hog := k.CreateProcess("hog")
	pages := k.TotalPages() * 7 / 8
	region, _ := k.Mmap(s.Now(), hog, pages)
	k.FaultIn(s.Now(), region, pages)
	if r.OOMKills == 0 {
		t.Fatal("an allocation past the node's memory was not resolved by the runner")
	}
	k.CheckInvariants()
}

// TestRegisterEvery: the registration adds every PIDs and InputFilePIDs
// entry at once, picks up containers that start between refreshes within
// one period (including a job's input-file owner killed before any refresh
// saw it, which only InputFilePIDs names), never removes a PID, and stops
// with the runner.
func TestRegisterEvery(t *testing.T) {
	k, s := newNode(t)
	idle := s.Pending()
	r := NewRunner(k, testConfig())
	reg := monitor.NewRegistry()
	r.RegisterEvery(reg, 500*simtime.Millisecond)
	first := append(r.PIDs(), r.InputFilePIDs()...)
	for _, pid := range first {
		if !reg.IsBatch(pid) {
			t.Fatalf("PID %d not registered at once", pid)
		}
	}

	for r.Completed == 0 { // a job completes and a new one replaces it
		s.Advance(r.cfg.TickPeriod)
	}
	fresh := r.jobs[0]
	for _, j := range r.jobs {
		if j.id > fresh.id {
			fresh = j
		}
	}
	owner, sibling := fresh.containers[0].proc, fresh.containers[1].proc.PID
	if reg.IsBatch(owner.PID) || reg.IsBatch(sibling) {
		t.Fatalf("job %d registered before a refresh saw it", fresh.id)
	}
	k.ExitProcess(owner)
	s.Advance(500 * simtime.Millisecond)
	if !reg.IsBatch(sibling) || !reg.IsBatch(owner.PID) {
		t.Fatalf("after one period: container %d registered %v, dead input-file owner %d registered %v",
			sibling, reg.IsBatch(sibling), owner.PID, reg.IsBatch(owner.PID))
	}
	for _, pid := range first {
		if !reg.IsBatch(pid) {
			t.Fatalf("PID %d of a completed job was removed from the registry", pid)
		}
	}

	r.Stop()
	if got := s.Pending(); got != idle {
		t.Fatalf("%d events pending after Stop, want the idle node's %d", got, idle)
	}
	after := monitor.NewRegistry()
	r.RegisterEvery(after, 500*simtime.Millisecond)
	s.Advance(2 * simtime.Second)
	for _, pid := range append(first, owner.PID, sibling) {
		if after.IsBatch(pid) {
			t.Fatalf("registrations ran after Stop: PID %d registered", pid)
		}
	}
	if s.Pending() != idle {
		t.Fatalf("registrations ran after Stop: %d events pending", s.Pending())
	}
}

func TestStopTearsEverythingDown(t *testing.T) {
	k, s := newNode(t)
	r := NewRunner(k, testConfig())
	s.Advance(3 * simtime.Second)
	r.Stop()
	r.Stop() // idempotent
	if k.Processes() != 0 {
		t.Fatalf("%d processes alive after stop", k.Processes())
	}
	if len(k.Files()) != 0 {
		t.Fatalf("%d files left after stop", len(k.Files()))
	}
	k.CheckInvariants()
}

func TestInvalidConfigPanics(t *testing.T) {
	k, _ := newNode(t)
	cfg := testConfig()
	cfg.Jobs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config must panic")
		}
	}()
	NewRunner(k, cfg)
}

// TestRetargetShrinkAndGrow drives the control plane's batch action
// through a full throttle cycle: shrink releases the trailing excess
// immediately (free pages come back, kernel invariants hold), grow re-
// enters the ramp back to the configured footprint, and the retarget
// counter records both moves.
func TestRetargetShrinkAndGrow(t *testing.T) {
	k, s := newNode(t)
	r := NewRunner(k, testConfig())
	defer r.Stop()
	s.Advance(simtime.Second) // ramp to the configured footprint
	full := k.FreePages()

	r.Retarget(s.Now(), 128<<20)
	if got := r.TargetBytes(); got != 128<<20 {
		t.Fatalf("target = %d after shrink, want %d", got, int64(128<<20))
	}
	k.CheckInvariants()
	// Stall-extended ticks mean the ramp may not be complete at the shrink
	// instant; the excess that *was* faulted must come back immediately.
	if freed := k.FreePages() - full; freed*k.PageSize() < 128<<20 {
		t.Fatalf("shrink released only %d MB immediately", freed*k.PageSize()>>20)
	}

	r.Retarget(s.Now(), 512<<20)
	s.Advance(simtime.Second) // re-ramp
	k.CheckInvariants()
	if regained := full - k.FreePages(); regained*k.PageSize() < -(64 << 20) {
		t.Fatalf("grow did not re-ramp (free %d pages above the full-ramp level)", regained)
	}
	used := (k.TotalPages() - k.FreePages()) * k.PageSize()
	if used < 256<<20 {
		t.Fatalf("batch used only %d MB after re-growing", used>>20)
	}
	if got := r.Retargets(); got != 2 {
		t.Fatalf("retargets = %d, want 2", got)
	}

	// A no-op retarget (same bytes) must not count.
	r.Retarget(s.Now(), 512<<20)
	if got := r.Retargets(); got != 2 {
		t.Fatalf("no-op retarget counted: %d", got)
	}

	// Retarget after Stop is inert.
	r.Stop()
	r.Retarget(s.Now(), 64<<20)
	if got := r.Retargets(); got != 2 {
		t.Fatalf("retarget after stop counted: %d", got)
	}
}
