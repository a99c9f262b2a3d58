package services

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/flatmap"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// RocksdbConfig sizes the LSM machinery.
type RocksdbConfig struct {
	// MemtableBytes is the write-buffer size; filling it triggers a flush
	// to a new SST file (a write stall charged to the triggering insert,
	// as RocksDB stalls writers when the buffer is full).
	MemtableBytes int64
	// BlockCacheBytes bounds the allocator-backed read cache.
	BlockCacheBytes int64
}

// DefaultRocksdbConfig mirrors a modest RocksDB instance.
func DefaultRocksdbConfig() RocksdbConfig {
	return RocksdbConfig{
		MemtableBytes:   64 << 20,
		BlockCacheBytes: 128 << 20,
	}
}

// Rocksdb models the disk-based LSM store of §5.3: inserts append to a WAL
// in the page cache and copy into an allocator-backed memtable; full
// memtables flush to SST files (which then live in the file cache); reads
// hit the memtable, then the allocator-backed block cache, then the SST
// files on disk. Its resident set is bounded by memtable+cache, so it
// leaves more memory for batch jobs than Redis (Table 1 discussion), while
// its reads share the disk with swap traffic — the source of the
// tens-of-milliseconds tail under pressure (Fig 10b).
type Rocksdb struct {
	k     *kernel.Kernel
	a     alloc.Allocator
	costs CostConfig
	cfg   RocksdbConfig

	memtable *flatmap.Map[*alloc.Block]
	memBytes int64
	wal      *kernel.File
	walSeq   int

	sstSeq int
	// records maps a key to its latest record state: the SST file holding
	// the flushed value (nil while the record only exists in the memtable)
	// and the record size — the former sstOf/valSize pair collapsed into
	// one flat-table probe.
	records *flatmap.Map[sstRecord]

	cache      *flatmap.Map[*alloc.Block]
	cacheBytes int64
	cacheOrder flatmap.Ring // FIFO eviction order (approximates LRU)

	// keyScratch is the reusable buffer for sorted-key iteration at flush
	// and close — the deterministic bulk paths.
	keyScratch []int64

	stored        int64
	flushes       int64
	lastPreMapped bool

	name string
}

// sstRecord is the per-key index entry of the SST tier.
type sstRecord struct {
	sst  *kernel.File
	size int64
}

var _ Service = (*Rocksdb)(nil)

// NewRocksdb creates the store on the given allocator. Files are namespaced
// by name so several instances can share a kernel.
func NewRocksdb(k *kernel.Kernel, a alloc.Allocator, costs CostConfig, cfg RocksdbConfig, name string) *Rocksdb {
	if cfg.MemtableBytes <= 0 || cfg.BlockCacheBytes <= 0 {
		panic("services: invalid rocksdb config")
	}
	r := &Rocksdb{
		k:        k,
		a:        a,
		costs:    costs,
		cfg:      cfg,
		memtable: flatmap.New[*alloc.Block](0),
		records:  flatmap.New[sstRecord](0),
		cache:    flatmap.New[*alloc.Block](0),
		name:     name,
	}
	r.wal = k.CreateFile(r.fileName("wal", r.walSeq), 0, r.ownerPID())
	return r
}

func (r *Rocksdb) ownerPID() kernel.PID {
	// The files belong to the service process backing the allocator; the
	// monitor daemon never touches them because the service is not
	// registered as a batch job.
	type procOwner interface{ Process() *kernel.Process }
	if p, ok := r.a.(procOwner); ok {
		return p.Process().PID
	}
	return 0
}

func (r *Rocksdb) fileName(kind string, seq int) string {
	return fmt.Sprintf("%s-%s-%06d", r.name, kind, seq)
}

// Name implements Service.
func (r *Rocksdb) Name() string { return "Rocksdb" }

// StoredBytes implements Service.
func (r *Rocksdb) StoredBytes() int64 { return r.stored }

// LastPreMapped implements Service.
func (r *Rocksdb) LastPreMapped() bool { return r.lastPreMapped }

// Flushes reports completed memtable flushes (diagnostics).
func (r *Rocksdb) Flushes() int64 { return r.flushes }

// Insert implements Service: WAL append through the page cache, then an
// allocator-backed memtable entry. A full memtable flushes synchronously
// (RocksDB's write stall), writing an SST and freeing the memtable.
func (r *Rocksdb) Insert(key, valueBytes int64) simtime.Duration {
	cost, _ := r.insert(key, valueBytes)
	return cost
}

// insert is Insert returning the memtable block too (nil when a triggered
// flush released it), so Query can read the fresh record without re-probing
// the memtable. The memtable update is a single Swap probe; the records
// upsert is one Swap plus a fix-up store only for keys that also have a
// flushed SST version to keep pointing at.
func (r *Rocksdb) insert(key, valueBytes int64) (simtime.Duration, *alloc.Block) {
	if valueBytes <= 0 {
		panic(fmt.Sprintf("services: insert of %d bytes", valueBytes))
	}
	now := r.k.Scheduler().Now()
	cost := r.costs.IndexCost
	cost += r.k.WriteFile(now.Add(cost), r.wal, alloc.PagesFor(r.k, valueBytes), true)

	b, c := r.a.Malloc(now.Add(cost), valueBytes)
	cost += c
	cost += r.a.Touch(now.Add(cost), b)
	cost += copyCost(r.costs, valueBytes)
	r.lastPreMapped = b.PreMapped
	if old, ok := r.memtable.Swap(key, b); ok {
		size := old.Size // Free recycles the Block; read nothing after it
		cost += r.a.Free(now.Add(cost), old)
		r.memBytes -= size
	}
	r.memBytes += valueBytes
	// stored is the live dataset: the latest size of every live key. An
	// overwrite replaces the key's previous size (whether that version sat
	// in the memtable or an SST) with the new one — and keeps the SST
	// pointer, which stays the fallback copy until the next flush.
	old, known := r.records.Swap(key, sstRecord{size: valueBytes})
	if known {
		r.stored -= old.size
		if old.sst != nil {
			r.records.Put(key, sstRecord{sst: old.sst, size: valueBytes})
		}
	}
	r.stored += valueBytes

	if r.memBytes >= r.cfg.MemtableBytes {
		cost += r.flush(now.Add(cost))
		b = nil // flush freed the memtable blocks
	}
	return cost, b
}

// flush writes the memtable out as one SST file, truncates the WAL and
// releases the memtable blocks. Blocks are released in ascending key order:
// the free sequence mutates allocator and kernel state, so it must not
// depend on table internals for seed replay to be bit-identical.
func (r *Rocksdb) flush(at simtime.Time) simtime.Duration {
	r.flushes++
	r.sstSeq++
	sst := r.k.CreateFile(r.fileName("sst", r.sstSeq), 0, r.ownerPID())
	pages := alloc.PagesFor(r.k, r.memBytes)
	cost := r.k.WriteFile(at, sst, pages, true)
	cost += r.k.Fsync(at.Add(cost), sst)
	r.keyScratch = r.memtable.SortedKeys(r.keyScratch[:0])
	for _, key := range r.keyScratch {
		b, _ := r.memtable.Get(key)
		cost += r.a.Free(at.Add(cost), b)
		rec, _ := r.records.Get(key)
		rec.sst = sst
		r.records.Put(key, rec)
	}
	r.memtable.Clear()
	r.memBytes = 0
	// WAL truncation: drop and recreate.
	r.k.DeleteFile(r.wal)
	r.walSeq++
	r.wal = r.k.CreateFile(r.fileName("wal", r.walSeq), 0, r.ownerPID())
	return cost
}

// Read implements Service: memtable, then block cache, then the SST via the
// page cache/disk, inserting the result into the block cache.
func (r *Rocksdb) Read(key int64) simtime.Duration {
	now := r.k.Scheduler().Now()
	cost := r.costs.IndexCost
	if b, ok := r.memtable.Get(key); ok {
		return r.readBlock(b)
	}
	if b, ok := r.cache.Get(key); ok {
		cost += readCost(r.costs, b.Size)
		cost += r.k.Access(now.Add(cost), b.Region, alloc.PagesFor(r.k, b.Size))
		return cost
	}
	rec, ok := r.records.Get(key)
	if !ok || rec.sst == nil {
		return cost
	}
	size := rec.size
	cost += r.costs.IndexCost // SST index block probe
	cost += r.k.ReadFile(now.Add(cost), rec.sst, alloc.PagesFor(r.k, size))
	// Populate the block cache through the allocator.
	b, c := r.a.Malloc(now.Add(cost), size)
	cost += c
	cost += r.a.Touch(now.Add(cost), b)
	r.cache.Put(key, b)
	r.cacheBytes += size
	r.cacheOrder.Push(key)
	cost += readCost(r.costs, size)
	for r.cacheBytes > r.cfg.BlockCacheBytes && r.cacheOrder.Len() > 0 {
		victim, _ := r.cacheOrder.Pop()
		if vb, ok := r.cache.Delete(victim); ok {
			size := vb.Size // Free recycles the Block; read nothing after it
			cost += r.a.Free(now.Add(cost), vb)
			r.cacheBytes -= size
		}
	}
	return cost
}

// readBlock prices a read hit on an already-resolved memtable block: the
// index probe is still charged (the probe happened, or Query knows the
// slot), then payload streaming and possible swap-in.
func (r *Rocksdb) readBlock(b *alloc.Block) simtime.Duration {
	now := r.k.Scheduler().Now()
	cost := r.costs.IndexCost
	cost += readCost(r.costs, b.Size)
	cost += r.k.Access(now.Add(cost), b.Region, alloc.PagesFor(r.k, b.Size))
	return cost
}

// ImportRecords implements Service: a migration batch lands as one
// external-SST handoff, RocksDB's bulk-ingest side door. The whole batch is
// written and fsynced as a single SST (sized to the unpacked oplog, dups
// included), then each record's index entry flips to it; a resident stale
// version — memtable or block-cache — is freed, since the ingested SST
// supersedes it. One batched disk write instead of per-record allocator
// traffic is exactly why the LSM store restores faster than Redis.
func (r *Rocksdb) ImportRecords(entries []ImportEntry) simtime.Duration {
	if len(entries) == 0 {
		return 0
	}
	s := r.k.Scheduler()
	now := s.Now()
	var batchBytes int64
	for _, e := range entries {
		batchBytes += e.Size
	}
	r.sstSeq++
	sst := r.k.CreateFile(r.fileName("sst", r.sstSeq), 0, r.ownerPID())
	cost := r.k.WriteFile(now, sst, alloc.PagesFor(r.k, batchBytes), true)
	cost += r.k.Fsync(now.Add(cost), sst)
	for _, e := range entries {
		cost += r.costs.IndexCost
		if b, ok := r.memtable.Delete(e.Key); ok {
			size := b.Size // Free recycles the Block; read nothing after it
			cost += r.a.Free(now.Add(cost), b)
			r.memBytes -= size
		}
		if b, ok := r.cache.Delete(e.Key); ok {
			size := b.Size
			cost += r.a.Free(now.Add(cost), b)
			r.cacheBytes -= size
		}
		rec, known := r.records.Get(e.Key)
		if known {
			r.stored -= rec.size
		}
		r.stored += e.Size
		rec.size = e.Size
		rec.sst = sst
		r.records.Put(e.Key, rec)
	}
	s.Advance(cost)
	return cost
}

// ExportRecords implements Service: the live record set across all tiers
// (records indexes memtable and SST versions alike).
func (r *Rocksdb) ExportRecords(buf []ImportEntry) []ImportEntry {
	for _, key := range r.records.SortedKeys(nil) {
		rec, _ := r.records.Get(key)
		buf = append(buf, ImportEntry{Key: key, Size: rec.size})
	}
	return buf
}

// Delete implements Service: removes the record from every tier (SST data
// becomes dead and is ignored; compaction is out of scope).
func (r *Rocksdb) Delete(key int64) simtime.Duration {
	now := r.k.Scheduler().Now()
	cost := r.costs.IndexCost
	if b, ok := r.memtable.Delete(key); ok {
		size := b.Size // Free recycles the Block; read nothing after it
		cost += r.a.Free(now.Add(cost), b)
		r.memBytes -= size
	}
	if b, ok := r.cache.Delete(key); ok {
		size := b.Size
		cost += r.a.Free(now.Add(cost), b)
		r.cacheBytes -= size
	}
	if rec, ok := r.records.Delete(key); ok {
		r.stored -= rec.size
	}
	return cost
}

// Query implements Service: insert then read plus fixed overhead, jittered
// as one client-observed latency.
func (r *Rocksdb) Query(key, valueBytes int64) (total, ins, rd simtime.Duration) {
	s := r.k.Scheduler()
	// The read half targets the record the insert half just stored: while it
	// still sits in the memtable (no flush intervened), serve it from the
	// known block — same memtable-hit arithmetic, one probe less. A flush
	// falls back to the full tier walk, exactly as a fresh Read would.
	var b *alloc.Block
	ins, b = r.insert(key, valueBytes)
	s.Advance(ins)
	if b != nil {
		rd = r.readBlock(b)
	} else {
		rd = r.Read(key)
	}
	s.Advance(rd)
	overhead := queryOverhead(r.costs, valueBytes)
	total = workload.JitterRequest(r.k, ins+rd+overhead, r.lastPreMapped)
	s.Advance(overhead)
	return total, ins, rd
}

// Close implements Service: SST and WAL files are deleted (their cache
// returns to the kernel); allocator-backed blocks are dropped with the
// instance. Files are visited in ascending key order — DeleteFile mutates
// the kernel's LRU lists, so the visit order must not depend on table
// internals (the former map iteration was the one nondeterministic step on
// this path). DeleteFile marks the file deleted, which also dedupes SSTs
// shared by many keys.
func (r *Rocksdb) Close() {
	if r.wal != nil && !r.wal.Deleted() {
		r.k.DeleteFile(r.wal)
	}
	r.keyScratch = r.records.SortedKeys(r.keyScratch[:0])
	for _, key := range r.keyScratch {
		rec, _ := r.records.Get(key)
		if rec.sst != nil && !rec.sst.Deleted() {
			r.k.DeleteFile(rec.sst)
		}
	}
	// Drop the tiers (nil flatmaps keep the Go-map contract: reads after
	// Close are harmless misses, writes panic).
	r.memtable = nil
	r.cache = nil
	r.records = nil
}
