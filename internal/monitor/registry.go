// Package monitor implements the paper's memory monitor daemon (§3.3, §4):
// a per-node process that keeps the administrator-supplied sets of
// latency-critical services and batch jobs in a shared-memory registry, and
// proactively advises the kernel to release batch jobs' file-cache pages
// under memory pressure, largest file first.
package monitor

import "github.com/hermes-sim/hermes/internal/kernel"

// Registry is the shared-memory area through which the administrator, the
// daemon and the modified Glibc communicate (§4: "it uses the shared memory
// to store all the process IDs of latency-critical services").
type Registry struct {
	latencyCritical map[kernel.PID]bool
	batch           map[kernel.PID]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		latencyCritical: make(map[kernel.PID]bool),
		batch:           make(map[kernel.PID]bool),
	}
}

// AddLatencyCritical registers a latency-critical service. The modified
// Glibc's lazy initialisation consults this set: a process that finds its
// PID here starts the management thread.
func (r *Registry) AddLatencyCritical(pid kernel.PID) { r.latencyCritical[pid] = true }

// RemoveLatencyCritical demotes a process back to default Glibc behaviour.
func (r *Registry) RemoveLatencyCritical(pid kernel.PID) { delete(r.latencyCritical, pid) }

// IsLatencyCritical reports whether pid is registered as latency-critical.
func (r *Registry) IsLatencyCritical(pid kernel.PID) bool { return r.latencyCritical[pid] }

// AddBatch registers a batch job whose file cache may be proactively
// released.
func (r *Registry) AddBatch(pid kernel.PID) { r.batch[pid] = true }

// IsBatch reports whether pid is registered as a batch job.
func (r *Registry) IsBatch(pid kernel.PID) bool { return r.batch[pid] }

// LatencyCriticalCount returns the number of registered services.
func (r *Registry) LatencyCriticalCount() int { return len(r.latencyCritical) }
