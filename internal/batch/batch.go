// Package batch models the best-effort batch jobs of the paper's
// co-location experiments (§5.3): Spark KMeans/PageRank-style jobs from
// HiBench, each running in several YARN containers that ramp up anonymous
// memory, stream input files through the page cache, and churn —
// completed jobs exit (freeing anon memory but leaving their file cache
// resident, the §2.3 pathology) and new jobs take their place.
//
// The memory-pressure level of Figures 9–14 configures the jobs' combined
// logical footprint as a percentage of node capacity (150% oversubscribes
// by half); the "Killing" policy of Table 1 is implemented here as well.
package batch

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// Config describes one batch workload set.
type Config struct {
	// Jobs is the number of concurrently running jobs (the paper keeps 3).
	Jobs int
	// ContainersPerJob mirrors the paper's 8 YARN containers per job.
	ContainersPerJob int
	// TargetBytes is the combined anonymous footprint of all containers;
	// the pressure level maps to it (level × node capacity, §5.1).
	TargetBytes int64
	// InputBytes is the per-job input dataset streamed through the file
	// cache.
	InputBytes int64
	// WorkDuration is each container's required busy time; a job
	// completes when all its containers have accumulated it.
	WorkDuration simtime.Duration
	// RampTicks spreads each container's memory ramp over this many ticks.
	RampTicks int
	// TickPeriod is the simulation granularity of batch activity.
	TickPeriod simtime.Duration
}

// DefaultConfig returns the co-location workload shape, scaled to the
// node's capacity by the caller via TargetBytes.
func DefaultConfig() Config {
	return Config{
		Jobs:             3,
		ContainersPerJob: 8,
		InputBytes:       512 << 20,
		WorkDuration:     20 * simtime.Minute,
		RampTicks:        50,
		TickPeriod:       100 * simtime.Millisecond,
	}
}

// Validate reports whether the configuration is well-formed, naming the
// offending field so config loaders can surface the message verbatim.
func (c Config) Validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("batch: Jobs must be > 0 (got %d)", c.Jobs)
	}
	if c.ContainersPerJob <= 0 {
		return fmt.Errorf("batch: ContainersPerJob must be > 0 (got %d)", c.ContainersPerJob)
	}
	if c.TargetBytes < 0 {
		return fmt.Errorf("batch: TargetBytes must be >= 0 (got %d)", c.TargetBytes)
	}
	if c.WorkDuration <= 0 {
		return fmt.Errorf("batch: WorkDuration must be > 0 (got %v)", c.WorkDuration)
	}
	if c.RampTicks <= 0 {
		return fmt.Errorf("batch: RampTicks must be > 0 (got %d)", c.RampTicks)
	}
	if c.TickPeriod <= 0 {
		return fmt.Errorf("batch: TickPeriod must be > 0 (got %v)", c.TickPeriod)
	}
	return nil
}

// container is one YARN-container-like process.
type container struct {
	proc    *kernel.Process
	region  *kernel.Region
	target  int64 // pages
	ramped  int64 // pages faulted so far
	uptime  simtime.Duration
	started simtime.Time
}

// job is one batch job instance.
type job struct {
	id         int
	containers []*container
	input      *kernel.File
}

// Runner drives a fixed-concurrency stream of batch jobs.
type Runner struct {
	k    *kernel.Kernel
	cfg  Config
	task *simtime.PeriodicTask
	// registrations are the RegisterEvery tasks; Stop stops them.
	registrations []*simtime.PeriodicTask

	jobs   []*job
	nextID int
	// retired holds input files of completed jobs: their pages linger in
	// the page cache until reclaimed (§2.3's pathology) — the files are
	// only deleted at Stop.
	retired []*kernel.File

	// Killing enables Table 1's proactive policy: when free memory dips
	// below the threshold, the most recently started container is killed
	// (least progress lost) and must redo its work.
	Killing       bool
	KillThreshold int64 // pages

	// Completed counts finished jobs — Table 1's throughput metric.
	Completed int64
	// Kills counts policy kills; OOMKills counts kernel OOM invocations
	// routed to this runner.
	Kills    int64
	OOMKills int64

	retargets int64
	stopped   bool
}

// NewRunner starts the batch workload and installs HandleOOM as the
// kernel's OOM handler: from here until Stop the runner's containers are
// the node's OOM victims. A kernel has one OOM handler, so a node runs one
// Runner at a time. Stop halts it.
func NewRunner(k *kernel.Kernel, cfg Config) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Runner{k: k, cfg: cfg}
	// The Killing policy's administrator threshold: "node memory is
	// insufficient" once free memory falls below ~4% of capacity.
	r.KillThreshold = k.TotalPages() / 24
	for i := 0; i < cfg.Jobs; i++ {
		r.jobs = append(r.jobs, r.startJob())
	}
	r.task = simtime.NewPeriodicTask(k.Scheduler(), cfg.TickPeriod, r.tick)
	k.SetOOMHandler(r.HandleOOM)
	return r
}

// RegisterEvery is the administrator's batch registration (§3.3): it adds
// every PIDs and InputFilePIDs entry to reg now and again every period, so
// the monitor daemon may release the cache of containers that churn in.
// It never removes a PID: a dead container's input file stays cached
// (§2.3), and the daemon's tick costs the same at any registry size. Each
// refresh charges 10 µs of virtual CPU. The refreshes end at Stop.
func (r *Runner) RegisterEvery(reg *monitor.Registry, period simtime.Duration) {
	if r.stopped {
		return
	}
	register := func() {
		for _, pid := range r.PIDs() {
			reg.AddBatch(pid)
		}
		for _, pid := range r.InputFilePIDs() {
			reg.AddBatch(pid)
		}
	}
	register()
	r.registrations = append(r.registrations, simtime.NewPeriodicTask(r.k.Scheduler(), period,
		func(simtime.Time) simtime.Duration {
			register()
			return 10 * simtime.Microsecond
		}))
}

// TargetBytes returns the runner's current combined anonymous footprint
// target.
func (r *Runner) TargetBytes() int64 { return r.cfg.TargetBytes }

// Retargets counts mid-run footprint changes applied through Retarget.
func (r *Runner) Retargets() int64 { return r.retargets }

// Retarget moves the runner's combined anonymous footprint to bytes
// mid-run — the adaptive control plane's batch-sizing action. Every
// container's per-container target moves to the new split: a shrinking
// container munmaps its trailing excess immediately (anonymous pages and
// swap slots free on the spot), a growing one extends its VMA and
// re-enters the ramp, and dead containers restart at the new size on
// their next tick. Node-local and deterministic.
func (r *Runner) Retarget(now simtime.Time, bytes int64) {
	if r.stopped || bytes < 0 || bytes == r.cfg.TargetBytes {
		return
	}
	r.cfg.TargetBytes = bytes
	r.retargets++
	pages := bytes / int64(r.cfg.Jobs) / int64(r.cfg.ContainersPerJob) / r.k.PageSize()
	for _, j := range r.jobs {
		for _, c := range j.containers {
			c.target = pages
			if c.proc.Dead() {
				continue // restarts at the new target next tick
			}
			switch {
			case c.region == nil:
				if pages > 0 {
					c.region, _ = r.k.Mmap(now, c.proc, pages)
				}
			case c.region.Pages() > pages:
				r.k.Munmap(now, c.region, c.region.Pages()-pages)
				if pages == 0 {
					c.region = nil // fully released: the VMA is gone
				}
				if c.ramped > pages {
					c.ramped = pages
				}
			case c.region.Pages() < pages:
				r.k.MremapGrow(now, c.region, pages-c.region.Pages())
			}
		}
	}
}

// PIDs returns the PIDs of all live batch containers — the set the
// administrator hands to the monitor daemon.
func (r *Runner) PIDs() []kernel.PID {
	var out []kernel.PID
	for _, j := range r.jobs {
		for _, c := range j.containers {
			if !c.proc.Dead() {
				out = append(out, c.proc.PID)
			}
		}
	}
	return out
}

// InputFilePIDs returns the PIDs that own batch input files (the job
// datasets); file ownership is per job input file.
func (r *Runner) InputFilePIDs() []kernel.PID {
	var out []kernel.PID
	for _, j := range r.jobs {
		if j.input != nil && !j.input.Deleted() {
			out = append(out, j.input.OwnerPID)
		}
	}
	return out
}

func (r *Runner) startJob() *job {
	r.nextID++
	j := &job{id: r.nextID}
	perContainer := r.cfg.TargetBytes / int64(r.cfg.Jobs) / int64(r.cfg.ContainersPerJob)
	now := r.k.Scheduler().Now()
	for i := 0; i < r.cfg.ContainersPerJob; i++ {
		j.containers = append(j.containers, r.startContainer(perContainer, now))
	}
	// The job's input dataset: owned by the first container so the
	// monitor daemon can attribute (and release) its cache.
	owner := j.containers[0].proc.PID
	name := fmt.Sprintf("batch-input-%06d", j.id)
	j.input = r.k.CreateFile(name, r.cfg.InputBytes/r.k.PageSize(), owner)
	return j
}

func (r *Runner) startContainer(bytes int64, now simtime.Time) *container {
	proc := r.k.CreateProcess(fmt.Sprintf("container-%d", r.nextID))
	pages := bytes / r.k.PageSize()
	var region *kernel.Region
	if pages > 0 {
		region, _ = r.k.Mmap(now, proc, pages)
	}
	return &container{proc: proc, region: region, target: pages, started: now}
}

// tick advances every container: ramp memory, stream input, accumulate
// work; complete jobs and start replacements; apply the Killing policy.
func (r *Runner) tick(now simtime.Time) simtime.Duration {
	if r.stopped {
		return 0
	}
	var busy simtime.Duration

	if r.Killing {
		if free := r.k.FreePages(); free < r.KillThreshold {
			r.killNewest(now)
		}
	}

	for ji, j := range r.jobs {
		done := true
		for ci, c := range j.containers {
			if c.proc.Dead() {
				// Restart a killed container from scratch.
				perContainer := c.target * r.k.PageSize()
				j.containers[ci] = r.startContainer(perContainer, now)
				done = false
				continue
			}
			var stall simtime.Duration
			// Memory ramp.
			if c.ramped < c.target {
				step := c.target / int64(r.cfg.RampTicks)
				if step <= 0 {
					step = c.target - c.ramped
				}
				if step > c.target-c.ramped {
					step = c.target - c.ramped
				}
				if step > 0 && c.region != nil {
					stall += r.k.FaultIn(now.Add(busy+stall), c.region, step)
					c.ramped += step
				}
			}
			// Input streaming: a slice of the dataset per tick (re-reads
			// promote to active_file; dropped cache is re-fetched from
			// disk — how proactive reclamation taxes batch jobs).
			if j.input != nil && !j.input.Deleted() {
				slice := j.input.SizePages() / int64(r.cfg.RampTicks*4)
				if slice > 0 {
					stall += r.k.ReadFile(now.Add(busy+stall), j.input, slice)
				}
			}
			// Iterating over its resident data is the job's compute;
			// swapped-out pages stall it further. A ramp fault whose OOM
			// killed this container leaves nothing to iterate.
			if c.region != nil && c.ramped > 0 && !c.proc.Dead() {
				stall += r.k.Access(now.Add(busy+stall), c.region, c.ramped/8)
			}
			busy += stall
			// Progress is wall time minus stalls: memory pressure and
			// re-fetched input cost real job throughput (Table 1). Compute
			// overlaps I/O to a degree, so progress never collapses below
			// a quarter speed.
			progress := r.cfg.TickPeriod - stall
			if min := r.cfg.TickPeriod / 4; progress < min {
				progress = min
			}
			c.uptime += progress
			if c.uptime < r.cfg.WorkDuration {
				done = false
			}
		}
		if done {
			r.finishJob(ji)
		}
	}
	return busy
}

// finishJob completes a job: containers exit — anonymous memory is freed
// immediately but the input file's cache pages stay resident (§2.3: "the
// file cache pages loaded by the process are not reclaimed by Linux OS but
// remain in memory") — and a fresh job starts.
func (r *Runner) finishJob(idx int) {
	j := r.jobs[idx]
	for _, c := range j.containers {
		if !c.proc.Dead() {
			r.k.ExitProcess(c.proc)
		}
	}
	r.Completed++
	if j.input != nil && !j.input.Deleted() {
		r.retired = append(r.retired, j.input)
	}
	r.jobs[idx] = r.startJob()
}

// killNewest implements the Killing policy: terminate the most recently
// started live container.
func (r *Runner) killNewest(now simtime.Time) {
	var victim *container
	for _, j := range r.jobs {
		for _, c := range j.containers {
			if c.proc.Dead() {
				continue
			}
			if victim == nil || c.started > victim.started {
				victim = c
			}
		}
	}
	if victim != nil {
		r.k.ExitProcess(victim.proc)
		r.Kills++
	}
}

// HandleOOM is an OOMHandler killing the newest container, so kernel OOM
// maps to batch-job progress loss. NewRunner installs it; Stop removes it.
func (r *Runner) HandleOOM(k *kernel.Kernel, at simtime.Time, need int64) bool {
	before := r.Kills
	r.killNewest(at)
	if r.Kills == before {
		return false
	}
	r.Kills = before // killNewest counted it; reattribute as OOM
	r.OOMKills++
	return true
}

// Stop halts the runner and its registrations, tears down all containers
// and datasets, and removes the kernel's OOM handler.
func (r *Runner) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	for _, t := range r.registrations {
		t.Stop()
	}
	r.task.Stop()
	for _, j := range r.jobs {
		for _, c := range j.containers {
			if !c.proc.Dead() {
				r.k.ExitProcess(c.proc)
			}
		}
		if j.input != nil && !j.input.Deleted() {
			r.k.DeleteFile(j.input)
		}
	}
	for _, f := range r.retired {
		if !f.Deleted() {
			r.k.DeleteFile(f)
		}
	}
	r.k.SetOOMHandler(nil)
}
