// dicer-fleet consolidates a cluster of simulated DICER nodes: an
// open-loop stream of best-effort jobs is admitted, placed by a
// pluggable scheduler, and executed against per-node partitioning
// controllers, with node freeze/loss chaos and bounded re-placement.
//
// Usage:
//
//	dicer-fleet -nodes 4 -periods 120 -scheduler headroom
//	dicer-fleet -scheduler random -rate 2.5 -trace-out cluster.jsonl
//	dicer-fleet -node-chaos node-storm -chaos-seed 7 -summary-json summary.json
//	dicer-fleet -migrate -autoscale -max-nodes 8 -node-chaos node-storm
//	dicer-fleet -serve :9091
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dicer/internal/chaos"
	"dicer/internal/fleet"
)

// fleetParams carries the parsed flags; shared by batch and serve modes.
type fleetParams struct {
	nodes     int
	hps       string
	policy    string
	scheduler string
	schedSeed int64
	periods   int
	slo       float64
	queueCap  int

	seed    int64
	rate    float64
	meanDur float64
	stream  float64

	chaosName string
	chaosSeed int64

	migrate   bool
	autoscale bool
	maxNodes  int
	minNodes  int

	forensics   bool
	incidentDir string

	pprof bool
}

// config builds the fleet configuration the flags describe.
func (p fleetParams) config() (fleet.Config, error) {
	pol, ok := map[string]string{"um": "UM", "ct": "CT", "dicer": "DICER"}[strings.ToLower(p.policy)]
	if !ok {
		return fleet.Config{}, fmt.Errorf("unknown policy %q (have um, ct, dicer)", p.policy)
	}
	cfg := fleet.Config{
		Nodes:          p.nodes,
		HPs:            splitList(p.hps),
		Policy:         pol,
		SLO:            p.slo,
		HorizonPeriods: p.periods,
		Scheduler:      p.scheduler,
		SchedSeed:      p.schedSeed,
		QueueCap:       p.queueCap,
		Arrivals: fleet.ArrivalConfig{
			Seed:                p.seed,
			RatePerPeriod:       p.rate,
			MeanDurationPeriods: p.meanDur,
		},
	}
	if p.stream > 0 {
		rest := (1 - p.stream) / 3
		cfg.Arrivals.ClassWeights = [4]float64{p.stream, rest, rest, rest}
	}
	if p.chaosName != "" && p.chaosName != "none" {
		sched, err := chaos.NodeScheduleByName(p.chaosName, p.chaosSeed, p.nodes, p.periods)
		if err != nil {
			return fleet.Config{}, err
		}
		cfg.NodeChaos = sched
	}
	if p.migrate {
		cfg.Migration = fleet.MigrationConfig{Enabled: true}
	}
	if p.autoscale {
		cfg.Autoscale = fleet.AutoscaleConfig{Enabled: true, MaxNodes: p.maxNodes, MinNodes: p.minNodes}
	}
	if p.forensics || p.incidentDir != "" {
		cfg.Forensics = fleet.ForensicsConfig{Enabled: true}
	}
	return cfg, nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func main() {
	var p fleetParams
	flag.IntVar(&p.nodes, "nodes", 4, "cluster size")
	flag.StringVar(&p.hps, "hp", "omnetpp1,sphinx1,mcf1,Xalan1", "comma-separated HP applications, assigned round-robin")
	flag.StringVar(&p.policy, "policy", "dicer", "node-local policy: um | ct | dicer")
	flag.StringVar(&p.scheduler, "scheduler", "headroom", "placement scheduler: "+strings.Join(fleet.SchedulerNames(), " | "))
	flag.Int64Var(&p.schedSeed, "sched-seed", 1, "seed for the random scheduler")
	flag.IntVar(&p.periods, "periods", 120, "monitoring periods to simulate")
	flag.Float64Var(&p.slo, "slo", 0.9, "HP SLO as a fraction of alone performance")
	flag.IntVar(&p.queueCap, "queue-cap", 32, "admission queue capacity")
	flag.Int64Var(&p.seed, "seed", 42, "seed for the BE arrival stream")
	flag.Float64Var(&p.rate, "rate", 2, "mean BE job arrivals per period (Poisson)")
	flag.Float64Var(&p.meanDur, "mean-dur", 10, "mean BE job duration in periods (exponential)")
	flag.Float64Var(&p.stream, "stream-weight", 0.5, "arrival weight of streaming apps (rest split evenly; 0 = catalog default mix)")
	flag.StringVar(&p.chaosName, "node-chaos", "none", "node fault schedule: none | "+strings.Join(nodeChaosNames(), " | "))
	flag.Int64Var(&p.chaosSeed, "chaos-seed", 1, "seed for the node fault stream")
	flag.BoolVar(&p.migrate, "migrate", false, "evict BE jobs off nodes whose SLO burn-rate alert fires")
	flag.BoolVar(&p.autoscale, "autoscale", false, "enable the repartition-first autoscaler (repack, then add nodes; drain when idle)")
	flag.IntVar(&p.maxNodes, "max-nodes", 0, "with -autoscale: working-fleet upper bound (0 = 2x -nodes)")
	flag.IntVar(&p.minNodes, "min-nodes", 0, "with -autoscale: working-fleet lower bound (0 = -nodes)")
	flag.BoolVar(&p.forensics, "forensics", false, "arm the flight recorder (per-node black-box rings sealed into incident bundles on SLO-burn or node freeze/loss triggers)")
	flag.StringVar(&p.incidentDir, "incident-dir", "", "write sealed incident bundles to this directory (implies -forensics); feed them to dicer-trace explain")
	flag.BoolVar(&p.pprof, "pprof", false, "with -serve: also expose /debug/pprof/ profiling endpoints")
	var (
		traceOut    = flag.String("trace-out", "", "write the JSONL cluster trace to this file")
		summaryJSON = flag.String("summary-json", "", "write the run summary as JSON to this file")
		every       = flag.Int("every", 20, "print a status row every N periods (0 = none)")
		serveAddr   = flag.String("serve", "", "loop the cluster and serve /metrics, /nodes, /queue, /alerts, /events and /healthz on this address (e.g. :9091)")
	)
	flag.Parse()

	if *serveAddr != "" {
		if err := runServe(*serveAddr, p); err != nil {
			fatal(err)
		}
		return // graceful shutdown (SIGINT/SIGTERM)
	}
	if err := runBatch(p, *traceOut, *summaryJSON, *every); err != nil {
		fatal(err)
	}
}

// runBatch executes one seeded cluster run and prints the summary.
func runBatch(p fleetParams, traceOut, summaryJSON string, every int) error {
	cfg, err := p.config()
	if err != nil {
		return err
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Trace = f
	}
	if every > 0 {
		cfg.OnPeriod = func(rec *fleet.ClusterRecord, _ []fleet.QueueEntry) {
			if rec.Period%every != 0 {
				return
			}
			fmt.Printf("t=%3d efu=%.3f running=%2d queued=%2d sloViol=%d losses=%d\n",
				rec.Period, rec.FleetEFU, rec.Running, rec.QueueLen,
				rec.SLOViolations, rec.Losses)
		}
	}

	c, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d nodes, policy %s, scheduler %s, %d periods (arrivals seed=%d rate=%.2g)\n\n",
		cfg.Nodes, cfg.Policy, cfg.Scheduler, cfg.HorizonPeriods, cfg.Arrivals.Seed, p.rate)
	res, err := c.Run()
	if err != nil {
		return err
	}

	fmt.Printf("\nresults (%s / %s):\n", res.Scheduler, res.Policy)
	fmt.Printf("  fleet EFU          %.3f\n", res.FleetEFU)
	fmt.Printf("  SLO violations     %d node-periods\n", res.SLOViolationPeriods)
	fmt.Printf("  jobs               %d arrived, %d admitted, %d rejected (%.1f%%)\n",
		res.Arrivals, res.Admitted, res.Rejected, 100*res.RejectRate)
	fmt.Printf("  completed          %d (running %d, queued %d, dropped %d at end)\n",
		res.Done, res.RunningEnd, res.QueuedEnd, res.Dropped)
	fmt.Printf("  queue wait         mean %.1f, p95 %.1f periods\n", res.MeanQueueWait, res.P95QueueWait)
	if res.Freezes > 0 || res.Losses > 0 {
		fmt.Printf("  chaos              %d freezes, %d losses, %d re-placements\n",
			res.Freezes, res.Losses, res.Requeued)
	}
	if res.Migrations > 0 {
		fmt.Printf("  migration          %d burn-rate migrations evicting %d BE jobs\n",
			res.Migrations, res.Evicted)
	}
	if res.Repacks > 0 || res.ScaleUps > 0 || res.ScaleDowns > 0 {
		fmt.Printf("  autoscale          %d repacks, %d scale-ups (+%d nodes), %d scale-downs (%d retired), %d nodes at end\n",
			res.Repacks, res.ScaleUps, res.NodesAdded, res.ScaleDowns, res.NodesRetired, res.NodesEnd)
	}
	if cfg.Forensics.Enabled {
		fmt.Printf("  forensics          %d incident bundle(s) sealed", res.Incidents)
		if res.IncidentsDropped > 0 {
			fmt.Printf(", %d trigger(s) dropped at the retention bound", res.IncidentsDropped)
		}
		fmt.Println()
		if p.incidentDir != "" {
			n, err := dumpIncidents(p.incidentDir, c.Incidents())
			if err != nil {
				return err
			}
			fmt.Printf("  incident-dir       %s (%d file(s))\n", p.incidentDir, n)
		}
	}
	if traceOut != "" {
		fmt.Printf("  trace              %s\n", traceOut)
	}

	if summaryJSON != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(summaryJSON, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  summary            %s\n", summaryJSON)
	}
	return nil
}

// dumpIncidents writes each sealed bundle to dir under its canonical
// filename, returning how many were written.
func dumpIncidents(dir string, incs []*fleet.Incident) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, inc := range incs {
		f, err := os.Create(filepath.Join(dir, inc.Filename()))
		if err != nil {
			return 0, err
		}
		if err := inc.Dump(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return len(incs), nil
}

// nodeChaosNames lists the canned node fault schedules.
func nodeChaosNames() []string {
	var names []string
	for _, s := range chaos.NodeSchedules(1, 1, 1) {
		names = append(names, s.Name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dicer-fleet:", err)
	os.Exit(1)
}
