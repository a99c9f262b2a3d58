package cluster

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/hermes-sim/hermes/internal/workload"
)

// ScenarioSpec is a loaded scenario file: the workload scenario plus
// optional cluster-shape hints so a committed preset is self-contained.
// The file format is
//
//	{
//	  "cluster":  { "nodes": 4, "shards": 8, "service": "rocksdb",
//	                "allocator": "glibc", "mem_gb": 4, "stats": "histogram" },
//	  "scenario": { ...workload scenario document... }
//	}
//
// where the cluster section (and each of its fields) is optional; a
// document without a "scenario" key is parsed as a bare scenario.
type ScenarioSpec struct {
	// Scenario is the workload description.
	Scenario workload.Scenario
	// Overrides carries the file's cluster hints; nil when absent.
	Overrides *SpecOverrides
}

// SpecOverrides are a preset's cluster-shape hints; zero-valued fields
// leave the base config untouched.
type SpecOverrides struct {
	Nodes    int `json:"nodes,omitempty"`
	Shards   int `json:"shards,omitempty"`
	Replicas int `json:"replicas,omitempty"`
	// ShardReplicas is the shard replication factor (Config.ShardReplicas):
	// failover-drill presets set it so kills have somewhere to fail over.
	ShardReplicas int           `json:"shard_replicas,omitempty"`
	Service       ServiceKind   `json:"service,omitempty"`
	Allocator     AllocatorKind `json:"allocator,omitempty"`
	MemGB         int64         `json:"mem_gb,omitempty"`
	Stats         StatsMode     `json:"stats,omitempty"`
}

// Apply layers the overrides onto a base config and re-validates the
// result.
func (o *SpecOverrides) Apply(cfg Config) (Config, error) {
	if o == nil {
		return cfg, nil
	}
	if o.Nodes > 0 {
		cfg.Nodes = o.Nodes
	}
	if o.Shards > 0 {
		cfg.Shards = o.Shards
	}
	if o.Replicas > 0 {
		cfg.Replicas = o.Replicas
	}
	if o.ShardReplicas > 0 {
		cfg.ShardReplicas = o.ShardReplicas
	}
	if o.Service != "" {
		cfg.ServiceKind = o.Service
	}
	if o.Allocator != "" {
		cfg.Allocator = o.Allocator
	}
	if o.MemGB > math.MaxInt64>>30 {
		return cfg, fmt.Errorf("scenario cluster overrides: mem_gb %d overflows the node's byte count (at most %d)", o.MemGB, int64(math.MaxInt64>>30))
	}
	if o.MemGB > 0 {
		cfg.Kernel.TotalMemory = o.MemGB << 30
		cfg.Kernel.SwapBytes = o.MemGB << 30
	}
	if o.Stats != "" {
		cfg.Stats = o.Stats
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("scenario cluster overrides: %w", err)
	}
	return cfg, nil
}

// ParseScenarioSpec decodes a scenario spec document (wrapped or bare) and
// validates the scenario.
func ParseScenarioSpec(data []byte) (ScenarioSpec, error) {
	var doc struct {
		Cluster  *SpecOverrides  `json:"cluster"`
		Scenario json.RawMessage `json:"scenario"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return ScenarioSpec{}, fmt.Errorf("cluster: scenario spec JSON: %w", err)
	}
	raw := doc.Scenario
	if raw == nil {
		raw = data // bare scenario document
	} else if err := workload.UnmarshalStrict(data, &doc); err != nil {
		// Wrapped: the envelope and its cluster section are strict too.
		return ScenarioSpec{}, fmt.Errorf("cluster: scenario spec JSON: %w", err)
	}
	scn, err := workload.ParseScenario(raw)
	if err != nil {
		return ScenarioSpec{}, err
	}
	return ScenarioSpec{Scenario: scn, Overrides: doc.Cluster}, nil
}
