// Package services models the two real-world latency-critical services of
// the paper's evaluation (§5.3): an in-memory key-value store in the image
// of Redis 5.0.5 and an LSM-tree disk store in the image of RocksDB 6.4.0.
// Both allocate all dynamic memory through a pluggable alloc.Allocator, so
// swapping Glibc/jemalloc/TCMalloc/Hermes underneath them reproduces the
// paper's comparisons. A query is one insertion followed by one read of the
// same record, exactly the paper's request shape.
package services

import (
	"github.com/hermes-sim/hermes/internal/simtime"
)

// CostConfig prices the service-side work around the allocator. Services
// copy record payloads with memcpy-class streaming (unlike the
// micro-benchmark's byte-loop, which is priced by CostModel.TouchPerKB);
// reads stream even faster. Calibrated against Figure 2's insert/read
// breakdown (insert is 74.7% of the average small query and 93.5% of the
// average large query) and the SLO magnitudes of Figures 9 and 10.
type CostConfig struct {
	// IndexCost prices one index operation (hash table or memtable probe).
	IndexCost simtime.Duration
	// CopyPerKB prices copying the record payload on insertion.
	CopyPerKB simtime.Duration
	// ReadBase and ReadPerKB price serving a read hit.
	ReadBase  simtime.Duration
	ReadPerKB simtime.Duration
	// QueryBase is the fixed per-query service overhead: for the
	// networked store (Redis) it covers protocol parsing, the event loop
	// and the response path; for the embedded store it is small.
	QueryBase simtime.Duration
	// QueryPerKB is the per-KB protocol/transfer overhead of a query.
	QueryPerKB simtime.Duration
}

// RedisCosts returns the networked in-memory store's cost table.
func RedisCosts() CostConfig {
	return CostConfig{
		IndexCost:  500 * simtime.Nanosecond,
		CopyPerKB:  300 * simtime.Nanosecond,
		ReadBase:   2 * simtime.Microsecond,
		ReadPerKB:  100 * simtime.Nanosecond,
		QueryBase:  220 * simtime.Microsecond,
		QueryPerKB: 9 * simtime.Microsecond,
	}
}

// RocksdbCosts returns the embedded store's cost table.
func RocksdbCosts() CostConfig {
	return CostConfig{
		IndexCost:  600 * simtime.Nanosecond,
		CopyPerKB:  300 * simtime.Nanosecond,
		ReadBase:   2 * simtime.Microsecond,
		ReadPerKB:  100 * simtime.Nanosecond,
		QueryBase:  4 * simtime.Microsecond,
		QueryPerKB: 150 * simtime.Nanosecond,
	}
}

// ImportEntry is one record of a shard-migration batch: the key and the
// payload size of its latest version. A batch is an oplog slice — entries
// replay in their original write order, so a later overwrite of the same
// key supersedes the earlier one exactly as the live path would.
type ImportEntry struct {
	Key  int64
	Size int64
}

// Service is the common surface the experiments drive.
type Service interface {
	// Name identifies the service in experiment output.
	Name() string
	// Insert stores a record, returning the observed latency.
	Insert(key int64, valueBytes int64) simtime.Duration
	// Read fetches a record, returning the observed latency.
	Read(key int64) simtime.Duration
	// Delete removes a record, returning the observed latency.
	Delete(key int64) simtime.Duration
	// Query is the paper's composite request: insert followed by read of
	// the same key. It returns (total latency, insert latency, read
	// latency) — the split regenerates Figure 2.
	Query(key int64, valueBytes int64) (total, insert, read simtime.Duration)
	// StoredBytes reports the live dataset size.
	StoredBytes() int64
	// LastPreMapped reports whether the most recent insertion was served
	// entirely from pre-mapped memory (Hermes reservations): such requests
	// never enter the kernel, so drivers exempt them from the ambient
	// reclaim slowdown (workload.JitterRequest).
	LastPreMapped() bool
	// ImportRecords bulk-loads an oplog batch — the shard-migration ingest
	// path a restored node replays. The work is real virtual-time work on
	// the service's node (Redis re-inserts every record through its
	// allocator; RocksDB takes one SST handoff per batch): the method
	// advances the service's scheduler itself and returns the total cost.
	ImportRecords(entries []ImportEntry) simtime.Duration
	// ExportRecords appends the live record set — every key with its
	// current size — to buf in ascending key order and returns the
	// extended slice. This is the migration export hook and the oracle
	// surface for conservation tests; it reads no clocks and costs no
	// virtual time.
	ExportRecords(buf []ImportEntry) []ImportEntry
	// Close releases service resources (not the allocator).
	Close()
}

// copyCost prices the payload copy for an insert.
func copyCost(c CostConfig, bytes int64) simtime.Duration {
	return simtime.Duration(bytes * int64(c.CopyPerKB) / 1024)
}

// readCost prices a read hit of the given size.
func readCost(c CostConfig, bytes int64) simtime.Duration {
	return c.ReadBase + simtime.Duration(bytes*int64(c.ReadPerKB)/1024)
}

// queryOverhead prices the fixed protocol/transfer share of one query.
func queryOverhead(c CostConfig, bytes int64) simtime.Duration {
	return c.QueryBase + simtime.Duration(bytes*int64(c.QueryPerKB)/1024)
}
