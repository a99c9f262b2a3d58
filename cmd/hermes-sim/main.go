// hermes-sim runs one ad-hoc micro-benchmark cell: pick a node size, an
// allocator, a pressure regime and a request size, get the latency digest.
//
// Usage:
//
//	hermes-sim -alloc hermes -pressure anon -request 1024 -total 64MB
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	hermes "github.com/hermes-sim/hermes"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	allocFlag := flag.String("alloc", "hermes", "allocator: hermes, glibc, jemalloc, tcmalloc")
	pressureFlag := flag.String("pressure", "none", "pressure regime: none, anon, file")
	request := flag.Int64("request", 1024, "request size in bytes")
	totalFlag := flag.String("total", "64MB", "total bytes to allocate (e.g. 64MB, 1GB)")
	memFlag := flag.String("mem", "128GB", "node DRAM size")
	seed := flag.Uint64("seed", 1, "determinism seed")
	flag.Parse()

	total, err := parseSize(*totalFlag)
	if err != nil {
		return fmt.Errorf("-total: %w", err)
	}
	mem, err := parseSize(*memFlag)
	if err != nil {
		return fmt.Errorf("-mem: %w", err)
	}
	if *request <= 0 {
		return fmt.Errorf("-request %d must be positive", *request)
	}
	if total < *request {
		return fmt.Errorf("-total %d bytes is less than -request %d", total, *request)
	}

	cfg := hermes.DefaultNodeConfig()
	cfg.Kernel.TotalMemory = mem
	cfg.Kernel.Seed = *seed
	if err := cfg.Kernel.Validate(); err != nil {
		return fmt.Errorf("-mem: %w", err)
	}
	var pcfg *hermes.PressureConfig
	switch *pressureFlag {
	case "none":
	case "anon", "file":
		kind := hermes.PressureAnon
		if *pressureFlag == "file" {
			kind = hermes.PressureFile
		}
		c := hermes.DefaultPressureConfig(kind)
		if err := c.CheckNode(mem); err != nil {
			return fmt.Errorf("-mem %s: %w", *memFlag, err)
		}
		pcfg = &c
	default:
		return fmt.Errorf("unknown pressure %q", *pressureFlag)
	}
	node := hermes.NewNode(cfg)

	var pressure *hermes.Pressure
	if pcfg != nil {
		pressure = node.StartPressure(*pcfg)
	}

	var a hermes.Allocator
	switch strings.ToLower(*allocFlag) {
	case "hermes":
		a = node.NewHermesAllocator("sim")
	case "glibc":
		a = node.NewGlibcAllocator("sim")
	case "jemalloc":
		a = node.NewJemallocAllocator("sim")
	case "tcmalloc":
		a = node.NewTCMallocAllocator("sim")
	default:
		return fmt.Errorf("unknown allocator %q", *allocFlag)
	}
	defer a.Close()

	node.Advance(20 * time.Millisecond)
	rec := hermes.NewRecorder(*allocFlag)
	node.RunMicroBench(a, *request, total, rec)
	if pressure != nil {
		pressure.Stop()
	}

	fmt.Println(rec.Summarize())
	st := a.Stats()
	fmt.Printf("allocator: %d mallocs, %.1f MB requested, heap %.1f MB, mmapped %.1f MB, reserved %.1f MB\n",
		st.Mallocs, mb(st.BytesRequested), mb(st.HeapBytes), mb(st.MmapBytes), mb(st.ReservedBytes))
	ks := node.Kernel().Stats()
	fmt.Printf("kernel: %d minor faults, %d major, %d direct reclaims, %d pages swapped out\n",
		ks.MinorFaults, ks.MajorFaults, ks.DirectReclaims, ks.PagesSwapOut)
	return nil
}

func mb(v int64) float64 { return float64(v) / (1 << 20) }

// parseSize parses "64MB", "1GB", "4096", rejecting a byte count that
// overflows int64.
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("bad size %q: overflows int64 bytes", s)
	}
	return n * mult, nil
}
