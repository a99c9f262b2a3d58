package services

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/flatmap"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// Redis models the in-memory key-value store of §5.3: every value lives in
// allocator-backed memory for the record's whole lifetime, so the store's
// resident set equals the dataset and old values are prime swap victims
// under node pressure — the paper's reason Redis leaves less room for batch
// jobs than RocksDB (Table 1 discussion). The key index is an open-addressed
// flat table (flatmap), so steady-state requests probe inline arrays instead
// of churning a Go map.
type Redis struct {
	k     *kernel.Kernel
	a     alloc.Allocator
	costs CostConfig

	table  *flatmap.Map[*alloc.Block]
	stored int64

	lastPreMapped bool
}

var _ Service = (*Redis)(nil)

// NewRedis creates the store on the given allocator.
func NewRedis(k *kernel.Kernel, a alloc.Allocator, costs CostConfig) *Redis {
	return &Redis{k: k, a: a, costs: costs, table: flatmap.New[*alloc.Block](0)}
}

// Name implements Service.
func (r *Redis) Name() string { return "Redis" }

// StoredBytes implements Service.
func (r *Redis) StoredBytes() int64 { return r.stored }

// LastPreMapped implements Service.
func (r *Redis) LastPreMapped() bool { return r.lastPreMapped }

// Insert implements Service: allocate, copy the payload, update the index;
// an overwrite frees the old value afterwards, as Redis does.
func (r *Redis) Insert(key, valueBytes int64) simtime.Duration {
	cost, _ := r.insert(key, valueBytes)
	return cost
}

// insert is Insert returning the stored block too, so Query can read the
// fresh record without a second index probe. The index update is a single
// Swap probe (insert-or-overwrite plus old-value retrieval in one scan); the
// overwritten value is freed afterwards, at the same virtual instant the
// former lookup-then-store sequence freed it.
func (r *Redis) insert(key, valueBytes int64) (simtime.Duration, *alloc.Block) {
	if valueBytes <= 0 {
		panic(fmt.Sprintf("services: insert of %d bytes", valueBytes))
	}
	now := r.k.Scheduler().Now()
	cost := r.costs.IndexCost
	b, c := r.a.Malloc(now.Add(cost), valueBytes)
	cost += c
	cost += r.a.Touch(now.Add(cost), b)
	cost += copyCost(r.costs, valueBytes)
	r.lastPreMapped = b.PreMapped
	if old, ok := r.table.Swap(key, b); ok {
		size := old.Size // Free recycles the Block; read nothing after it
		cost += r.a.Free(now.Add(cost), old)
		r.stored -= size
	}
	r.stored += valueBytes
	return cost, b
}

// Read implements Service: index probe plus payload streaming; values that
// were swapped out come back in at major-fault cost.
func (r *Redis) Read(key int64) simtime.Duration {
	b, ok := r.table.Get(key)
	if !ok {
		return r.costs.IndexCost
	}
	return r.readBlock(b)
}

// readBlock prices a read hit on an already-resolved block: the index probe
// is still charged (the probe happened, or Query knows the slot), then
// payload streaming and possible swap-in.
func (r *Redis) readBlock(b *alloc.Block) simtime.Duration {
	now := r.k.Scheduler().Now()
	cost := r.costs.IndexCost
	cost += readCost(r.costs, b.Size)
	cost += r.k.Access(now.Add(cost), b.Region, alloc.PagesFor(r.k, b.Size))
	return cost
}

// Delete implements Service.
func (r *Redis) Delete(key int64) simtime.Duration {
	now := r.k.Scheduler().Now()
	cost := r.costs.IndexCost
	if b, ok := r.table.Delete(key); ok {
		size := b.Size // Free recycles the Block; read nothing after it
		cost += r.a.Free(now.Add(cost), b)
		r.stored -= size
	}
	return cost
}

// Query implements Service: insert then read, plus the fixed protocol
// overhead, jittered as one client-observed latency. The scheduler advances
// by the query's duration so background machinery interleaves.
func (r *Redis) Query(key, valueBytes int64) (total, ins, rd simtime.Duration) {
	s := r.k.Scheduler()
	// The read half targets the record the insert half just stored, so the
	// block flows through directly — same read-hit arithmetic, one index
	// probe per query instead of three.
	var b *alloc.Block
	ins, b = r.insert(key, valueBytes)
	s.Advance(ins)
	rd = r.readBlock(b)
	s.Advance(rd)
	overhead := queryOverhead(r.costs, valueBytes)
	total = workload.JitterRequest(r.k, ins+rd+overhead, r.lastPreMapped)
	s.Advance(overhead)
	return total, ins, rd
}

// ImportRecords implements Service: a migration batch re-fills the store
// one record at a time through the allocator — Redis has no bulk-load side
// door, so the re-fill contends with whatever pressure the node is under,
// exactly like live inserts. The scheduler advances per record so kswapd
// and co-tenants interleave with the re-fill.
func (r *Redis) ImportRecords(entries []ImportEntry) simtime.Duration {
	s := r.k.Scheduler()
	var total simtime.Duration
	for _, e := range entries {
		c := r.Insert(e.Key, e.Size)
		s.Advance(c)
		total += c
	}
	return total
}

// ExportRecords implements Service.
func (r *Redis) ExportRecords(buf []ImportEntry) []ImportEntry {
	for _, key := range r.table.SortedKeys(nil) {
		b, _ := r.table.Get(key)
		buf = append(buf, ImportEntry{Key: key, Size: b.Size})
	}
	return buf
}

// Close implements Service. The allocator is owned by the caller; the
// table is simply dropped (a nil flatmap keeps the Go-map contract: reads
// after Close are harmless misses, writes panic).
func (r *Redis) Close() { r.table = nil }
