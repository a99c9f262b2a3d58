// hermes-monitor demonstrates the memory monitor daemon: batch jobs fill
// the page cache, anonymous memory squeezes the node, and the daemon's
// proactive reclamation (largest-file-first fadvise) releases the batch
// cache before the latency-critical service hits the kernel's slow reclaim
// path. Prints a timeline of free memory, file cache, and daemon activity.
//
// With -scenario it instead runs an adaptive scenario on a cluster and
// prints the control plane's decision timeline: every controller action
// (shed, batch, allocator, watermark) in virtual-time order, then the SLO
// compliance the run achieved.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/workload"
)

func main() {
	seconds := flag.Int("seconds", 30, "simulated seconds to run")
	scenario := flag.String("scenario", "", "run this scenario file and print the controller decision timeline")
	scale := flag.Float64("scale", 1, "multiply the scenario's durations and request budgets by this factor")
	flag.Parse()

	if *scenario != "" {
		if err := runAdaptive(*scenario, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "hermes-monitor:", err)
			os.Exit(1)
		}
		return
	}

	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "hermes-monitor: -seconds must be > 0 (got %d)\n", *seconds)
		os.Exit(1)
	}
	cfg := hermes.DefaultNodeConfig()
	cfg.Kernel.TotalMemory = 8 << 30
	cfg.Kernel.SwapBytes = 8 << 30
	node := hermes.NewNode(cfg)
	k := node.Kernel()

	bcfg := batch.DefaultConfig()
	bcfg.TargetBytes = 7 << 30
	bcfg.InputBytes = 1 << 30
	bcfg.WorkDuration = 15 * time.Second
	runner := batch.NewRunner(k, bcfg)
	defer runner.Stop()

	reg := node.NewRegistry()
	h := node.NewHermesAllocatorWith("svc", hermes.DefaultHermesConfig(), reg, true)
	defer h.Close()
	runner.RegisterEvery(reg, time.Second)
	daemon := node.StartDaemon(reg, hermes.DefaultDaemonConfig())
	defer daemon.Stop()

	fmt.Printf("%-8s %-12s %-12s %-10s %-12s %-10s\n",
		"t", "free", "file-cache", "used%", "fadvised", "kswapd")
	for i := 0; i < *seconds; i++ {
		// Keep the service allocating so pressure matters.
		for j := 0; j < 200; j++ {
			b, c := h.Malloc(node.Now(), 4096)
			node.Advance(c + h.Touch(node.Now().Add(c), b))
			h.Drop(b)
		}
		node.Advance(time.Second)
		st := daemon.Stats()
		fmt.Printf("%-8s %-12s %-12s %-10.1f %-12d %-10v\n",
			fmt.Sprintf("%ds", i+1),
			fmt.Sprintf("%.0fMB", float64(k.FreeBytes())/(1<<20)),
			fmt.Sprintf("%.0fMB", float64(k.FileCachePages()*k.PageSize())/(1<<20)),
			k.UsedFraction()*100, st.PagesReleased, k.KswapdActive())
	}
	fmt.Printf("\ndaemon: %d scans, %d advise calls, %d pages released, CPU %.2f%%\n",
		daemon.Stats().Scans, daemon.Stats().AdviseCalls, daemon.Stats().PagesReleased,
		daemon.Utilization(node.Now())*100)
	fmt.Printf("batch: %d jobs completed, %d kills\n", runner.Completed, runner.Kills)
}

// runAdaptive runs the scenario and prints the adaptive control plane's
// decision timeline.
func runAdaptive(path string, scale float64) error {
	if err := workload.CheckScale("-scale", scale); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := hermes.ParseScenarioSpec(data)
	if err != nil {
		return err
	}
	cfg, err := spec.Overrides.Apply(hermes.DefaultClusterConfig())
	if err != nil {
		return err
	}
	cfg.Seed = spec.Scenario.Seed
	scn := spec.Scenario
	if scale != 1 {
		scn = scn.Scaled(scale)
	}
	if scn.Policies == nil {
		return fmt.Errorf("scenario %q declares no policies: nothing for the control plane to decide", scn.Name)
	}

	c := hermes.NewCluster(cfg)
	defer c.Close()
	rep, err := c.RunScenario(scn)
	if err != nil {
		return err
	}

	fmt.Printf("scenario %q: %d controller decisions\n\n", scn.Name, len(rep.Actions))
	fmt.Print(hermes.RenderActionTimeline(rep.Actions))
	fmt.Printf("\nslo: compliance=%.2f%%\n", rep.SLOCompliance*100)
	return nil
}
