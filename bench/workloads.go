package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"contra"
	"contra/internal/campaign"
	"contra/internal/dist"
	"contra/internal/fabric"
)

// workload is one named benchmark input class. prepare builds the
// inputs from the seed (set-up time); the returned op is the unit that
// is timed. Everything the program under test receives is a generated
// spec — the seed itself never crosses into it except as the scenario
// seed fields a user would set.
type workload struct {
	name string
	why  string
	unit string // unit of work_per_s's numerator
	// freshInputs gives every timed op after the first its own input
	// (see inputSeed); prepare must then be cheap.
	freshInputs bool
	prepare     func(seed int64, quick bool, dir string, sp *spanLog) (*prepared, error)
}

// prepared is a workload instantiated for one seed.
type prepared struct {
	// run is the timed op. Only the calls into the program under test
	// happen here; digesting and checks live in verify.
	run func(sp *spanLog) (any, error)
	// verify turns an op's output into its facts, untimed: work done,
	// the digest of the deterministic output, exact per-layer metrics,
	// and an error when a correctness check is violated.
	verify func(out any) (*opFacts, error)
	// setupExact carries exact per-layer metrics known after prepare
	// (e.g. topology build spans are in sp; report sizes are here).
	setupExact map[string]float64
}

// opFacts is what one op produced, as established outside the timed
// region.
type opFacts struct {
	Work   float64 `json:"work"`
	Digest string  `json:"digest"`
	// Exact values are functions of the input alone and must repeat.
	Exact map[string]float64 `json:"exact,omitempty"`
	// Counts come from the run's scheduling (leases, heartbeats) and
	// may differ between ops; the median is reported.
	Counts map[string]float64 `json:"counts,omitempty"`
}

func sha(b ...[]byte) string {
	h := sha256.New()
	for _, p := range b {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scaleInt shrinks a size knob for -quick (≈1/20 of the work).
func scaleInt(n int, quick bool) int {
	if !quick {
		return n
	}
	if n /= 20; n < 1 {
		n = 1
	}
	return n
}

// cellWorkload wraps one scenario cell run through contra.RunScenario.
// spec renders the cell as the JSON a user would put in a spec file;
// mustComplete makes "every flow completed" a correctness check (the
// FCT cells that are sized to drain).
func cellWorkload(name, why string, mustComplete bool, spec func(seed int64, quick bool) string) workload {
	return workload{
		name: name, why: why, unit: "simMB", freshInputs: true,
		prepare: func(seed int64, quick bool, _ string, _ *spanLog) (*prepared, error) {
			var sc contra.Scenario
			dec := json.NewDecoder(strings.NewReader(spec(seed, quick)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&sc); err != nil {
				return nil, fmt.Errorf("%s: generated spec: %w", name, err)
			}
			sc.Name = name
			return &prepared{
				run: func(sp *spanLog) (any, error) {
					defer sp.begin("scenario.cell")()
					return contra.RunScenario(sc)
				},
				verify: func(out any) (*opFacts, error) {
					res := out.(*contra.ScenarioResult)
					enc, err := json.Marshal(res)
					if err != nil {
						return nil, err
					}
					f := &opFacts{
						Work:   res.FabricBytes / 1e6,
						Digest: sha(enc),
						Exact:  cellExact(res),
					}
					if res.FabricBytes <= 0 {
						return f, fmt.Errorf("%s: no fabric bytes simulated", name)
					}
					if mustComplete && res.Completed != int64(res.Flows) {
						return f, fmt.Errorf("%s: %d of %d flows completed", name, res.Completed, res.Flows)
					}
					return f, nil
				},
			}, nil
		},
	}
}

// cellExact extracts the exact (deterministic per seed) metrics of a
// scenario result.
func cellExact(r *contra.ScenarioResult) map[string]float64 {
	m := map[string]float64{
		"sim.fabric_MB":              r.FabricBytes / 1e6,
		"sim.simulated_ms":           float64(r.SimulatedNs) / 1e6,
		"sim.queue_drops":            r.QueueDrops,
		"sim.linkdown_drops":         r.LinkDownDrops,
		"sim.loop_breaks":            r.LoopBreaks,
		"sim.fct_mean_ms":            r.MeanFCT * 1e3,
		"sim.fct_p99_ms":             r.P99FCT * 1e3,
		"sim.probe_frac":             r.ProbeFrac(),
		"sim.recovery_ms":            0,
		"sim.completed_frac":         0,
		"dataplane.probe_MB":         r.ProbeBytes / 1e6,
		"dataplane.probe_tx_saved":   r.ProbeTxSaved,
		"dataplane.probe_suppressed": r.ProbeSuppressed,
		"dataplane.tag_MB":           r.TagBytes / 1e6,
		"workload.flows":             float64(r.Flows),
	}
	if r.RecoveryNs > 0 {
		m["sim.recovery_ms"] = float64(r.RecoveryNs) / 1e6
	}
	if r.Flows > 0 && r.RateBps == 0 {
		m["sim.completed_frac"] = float64(r.Completed) / float64(r.Flows)
	}
	return m
}

// webSearchClasses discretises the DCTCP web-search flow-size CDF
// (workload.WebSearch's knots) into seven fixed-size classes.
var webSearchClasses = []struct {
	bytes int64
	share float64
}{
	{10_000, 0.45}, {40_000, 0.25}, {100_000, 0.10}, {400_000, 0.10},
	{1_000_000, 0.05}, {4_000_000, 0.03}, {13_000_000, 0.02},
}

// webSearchWorkload renders a cohorts workload that offers the same
// multiset of flow sizes on every seed: one cohort per size class (up
// to maxBytes) with an exact flow count, so the offered bytes — and
// with them wall time, allocations and simulated MB — do not swing
// with the seed the way a few hundred draws from a heavy tail do
// (0.6-1.3 GB of fabric bytes across ten seeds for one 450-flow
// websearch cell). The seed draws arrival times and endpoints. Each
// cohort is a gamma(4) arrival stream paced to spread its flows over
// windowNs and cut at its count; the duration is four windows, which
// makes even a one-flow cohort all but certain (1 - 1e-4) to reach it.
func webSearchWorkload(flows int, maxBytes, windowNs, drainNs int64) string {
	type obj = map[string]any
	var cohorts []obj
	for i, c := range webSearchClasses {
		if c.bytes > maxBytes {
			break
		}
		n := int(c.share*float64(flows) + 0.5)
		if n < 1 {
			n = 1
		}
		cohorts = append(cohorts, obj{
			"name":      fmt.Sprintf("ws%d", i),
			"process":   "gamma",
			"shape":     4,
			"rate_fps":  float64(n) / (float64(windowNs) / 1e9),
			"size":      obj{"dist": "fixed", "bytes": c.bytes},
			"max_flows": n,
		})
	}
	b, err := json.Marshal(obj{
		"kind": "cohorts", "duration_ns": 4 * windowNs, "drain_ns": drainNs, "cohorts": cohorts,
	})
	if err != nil {
		panic(err) // maps of strings and numbers always encode
	}
	return string(b)
}

// allClasses admits every web-search size class.
const allClasses = 1 << 40

const linkFlap = `[{"kind":"link_down","at_ns":%d,"link":"auto"},{"kind":"link_up","at_ns":%d,"link":"auto"}]`

// workloads lists the six benchmark workloads. Names are normative
// (BENCHMARK.json, expected/<name>.sha256).
var workloads = []workload{
	cellWorkload("ecmp_ft8_data",
		"pure data path on a k=8 fat-tree under ECMP: sim engine, link/DRE, transport and next-hop queries; no probes, no tags, so it is the bypass workload for every dataplane or probe change",
		true,
		func(seed int64, quick bool) string {
			return fmt.Sprintf(`{"topo":"fattree:8:2","scheme":"ecmp","seed":%d,"workload":%s}`,
				seed, webSearchWorkload(scaleInt(300, quick), allClasses, 3_000_000, 1_000_000_000))
		}),
	cellWorkload("contra_ft8_packed",
		"Contra with packed, suppressed probes on a k=8 fat-tree through a link failure and recovery: flushPacked/handlePacked/rescanBest over map[fwdKey] tables plus tagged data forwarding",
		true,
		func(seed int64, quick bool) string {
			return fmt.Sprintf(`{"topo":"fattree:8:1","scheme":"contra","seed":%d,"policy":"minimize(path.util)",`+
				`"probe_packing":true,"suppress_eps":0.02,"refresh_every":4,"bin_ns":500000,"workload":%s,"events":%s}`,
				seed, webSearchWorkload(scaleInt(200, quick), allClasses, 2_000_000, 1_000_000_000), fmt.Sprintf(linkFlap, 3_700_000, 4_300_000))
		}),
	cellWorkload("contra_wan_unpacked",
		"Contra with unpacked per-origin probes and a regex plus tuple-rank policy on Abilene: handleProbe and rank evaluation; ms-scale delays put calendar-queue widths ~1000x from the fat-tree cells",
		false,
		func(seed int64, quick bool) string {
			return fmt.Sprintf(`{"topo":"abilene+hosts","scheme":"contra","seed":%d,`+
				`"policy":"minimize(if .* KC .* then (path.util, path.lat) else (1000, path.lat))","workload":%s}`,
				seed, webSearchWorkload(scaleInt(150, quick), allClasses, 25_000_000, 100_000_000))
		}),
	cellWorkload("hula_ft8_cbr_failover",
		"HULA baseline with packed probes under constant-bit-rate traffic through a link failure: baseline/hula.go, CBR transport with no ACK clock, series binning, recovery analysis; Contra's dataplane idle",
		false,
		func(seed int64, quick bool) string {
			end := int64(60_000_000)
			if quick {
				end /= 20
			}
			return fmt.Sprintf(`{"topo":"fattree:8:2","scheme":"hula","seed":%d,`+
				`"probe_packing":true,"suppress_eps":0.02,"refresh_every":4,"bin_ns":500000,`+
				`"workload":{"kind":"cbr","rate_bps":80e9,"end_ns":%d},"events":%s}`,
				seed, end, fmt.Sprintf(linkFlap, end/3, 2*end/3))
		}),
	compileSweep,
	fleetTinyCells,
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// compileSweep is the compiler-only workload: three topologies times
// the three standard policies, parse + compile + P4 for every switch.
var compileSweep = workload{
	name: "compile_sweep",
	why:  "compiler only (policy, analysis, automata, product graph, core, P4 generation) on two fat-trees and a random graph; no simulation, so simulator-only changes must not move it",
	unit: "programs",
	prepare: func(seed int64, quick bool, _ string, sp *spanLog) (*prepared, error) {
		k1, k2, n := 14, 18, 300
		if quick {
			k1, k2, n = 4, 4, 20
		}
		end := sp.begin("topo.build")
		topos := []*contra.Topology{
			contra.Fattree(k1, 0),
			contra.Fattree(k2, 0),
			contra.RandomTopology(n, 4, seed),
		}
		end()
		pols := contra.StandardPolicies()
		polNames := make([]string, 0, len(pols))
		for name := range pols {
			polNames = append(polNames, name)
		}
		sort.Strings(polNames)

		type compiled struct {
			progs []*contra.Program
			p4    [][]byte
		}
		return &prepared{
			run: func(sp *spanLog) (any, error) {
				var c compiled
				for _, g := range topos {
					for _, pn := range polNames {
						end := sp.begin("policy.parse")
						pol, err := contra.ParsePolicy(pols[pn](g), g.SortedNames()...)
						end()
						if err != nil {
							return nil, fmt.Errorf("parse %s on %s: %w", pn, g.Name, err)
						}
						end = sp.begin("core.compile")
						prog, err := contra.Compile(pol, g)
						end()
						if err != nil {
							return nil, fmt.Errorf("compile %s on %s: %w", pn, g.Name, err)
						}
						end = sp.begin("core.p4gen")
						p4, err := allP4(prog, g)
						end()
						if err != nil {
							return nil, err
						}
						c.progs = append(c.progs, prog)
						c.p4 = append(c.p4, p4)
					}
				}
				return &c, nil
			},
			verify: func(out any) (*opFacts, error) {
				c := out.(*compiled)
				var maxState, classes, tagBits, p4Bytes int
				h := sha256.New()
				for i, p := range c.progs {
					if s := p.MaxStateBytes(); s > maxState {
						maxState = s
					}
					classes += p.ProbeClasses()
					if b := p.TagBits(); b > tagBits {
						tagBits = b
					}
					p4Bytes += len(c.p4[i])
					h.Write(c.p4[i])
					fmt.Fprintf(h, "|%d|%d|%d\n", p.MaxStateBytes(), p.ProbeClasses(), p.TagBits())
				}
				return &opFacts{
					Work:   float64(len(c.progs)),
					Digest: hex.EncodeToString(h.Sum(nil)),
					Exact: map[string]float64{
						"core.state_max_kB":  float64(maxState) / 1e3,
						"core.probe_classes": float64(classes),
						"core.tag_bits":      float64(tagBits),
						"core.p4_kB":         float64(p4Bytes) / 1e3,
					},
				}, nil
			},
		}, nil
	},
}

// allP4 generates the P4 program of every switch, concatenated.
func allP4(prog *contra.Program, g *contra.Topology) ([]byte, error) {
	var buf bytes.Buffer
	for _, id := range g.Switches() {
		src, err := prog.P4(g.Node(id).Name)
		if err != nil {
			return nil, err
		}
		if src == "" {
			return nil, fmt.Errorf("empty P4 for %s on %s", g.Node(id).Name, g.Name)
		}
		buf.WriteString(src)
	}
	return buf.Bytes(), nil
}

// fleetSpec renders the tiny-cell campaign for a seed: one small
// fat-tree, three schemes, two load scales and a seed axis derived from
// the benchmark seed, every cell offering the same 16 small flows.
func fleetSpec(seed int64, quick bool) string {
	seeds := make([]string, scaleInt(20, quick))
	for i := range seeds {
		seeds[i] = fmt.Sprint(seed*1000 + int64(i))
	}
	return fmt.Sprintf(`{"name":"fleet_tiny_cells","topos":["fattree:4:2"],"schemes":["ecmp","hula","contra"],`+
		`"loads":[1,2],"seeds":[%s],"probe_packing":true,"workload":%s}`,
		strings.Join(seeds, ","), webSearchWorkload(20, 100_000, 500_000, 20_000_000))
}

// fleetOut is one fabric-path op's raw output.
type fleetOut struct {
	json, csv  []byte
	report     *campaign.Report
	status     fabric.Status
	grants     int
	recordsLen int64
}

// fleetTinyCells runs a campaign of tiny cells through the fabric
// path: an in-process coordinator behind a loopback httptest server,
// two RunWorker goroutines with durability dirs in a temp dir, a JSONL
// sink, then merge and report encoding. Traffic crosses the host's
// loopback interface and temp-dir files, not a real network.
var fleetTinyCells = workload{
	name: "fleet_tiny_cells",
	why:  "120 cells of a few ms each through coordinator + 2 workers over loopback HTTP: per-cell fixed costs (topology, compile, deploy, warm-up, lease/result calls, record/report encoding, merge) dominate",
	unit: "cells",
	prepare: func(seed int64, quick bool, dir string, sp *spanLog) (*prepared, error) {
		specPath := filepath.Join(dir, "fleet.json")
		if err := os.WriteFile(specPath, []byte(fleetSpec(seed, quick)), 0o644); err != nil {
			return nil, err
		}
		end := sp.begin("campaign.load")
		spec, err := contra.LoadCampaign(specPath)
		end()
		if err != nil {
			return nil, err
		}
		// The in-memory run is the byte-identity reference for every
		// fabric op. The traced pass runs it a second time under a span,
		// as the base of fabric.overhead_ms_per_cell: the first run pays
		// the process's cold start, which the fabric ops do not.
		ref, err := contra.RunCampaign(spec, contra.CampaignOptions{Workers: 2})
		if err != nil {
			return nil, err
		}
		if sp != nil {
			end = sp.begin("campaign.run_inmem")
			_, err = contra.RunCampaign(spec, contra.CampaignOptions{Workers: 2})
			end()
			if err != nil {
				return nil, err
			}
		}
		var refJSON, refCSV bytes.Buffer
		end = sp.begin("campaign.encode_json")
		err = ref.WriteJSON(&refJSON)
		end()
		if err != nil {
			return nil, err
		}
		end = sp.begin("campaign.encode_csv")
		err = ref.WriteCSV(&refCSV)
		end()
		if err != nil {
			return nil, err
		}
		cells := len(ref.Outcomes)
		setupExact := map[string]float64{"campaign.report_kB": float64(refJSON.Len()) / 1e3}

		// The sharded streaming path is measured once, in the traced
		// pass only: it is a per-layer number, not part of the op.
		if sp != nil {
			if err := runSharded(spec, dir, sp); err != nil {
				return nil, err
			}
		}

		opN := 0
		return &prepared{
			setupExact: setupExact,
			run: func(sp *spanLog) (any, error) {
				opN++
				defer sp.begin("fabric.run")()
				return runFabric(spec, filepath.Join(dir, fmt.Sprintf("op%d", opN)), sp)
			},
			verify: func(out any) (*opFacts, error) {
				o := out.(*fleetOut)
				f := &opFacts{
					Work:   float64(cells),
					Digest: sha(o.json, o.csv),
					Exact: map[string]float64{
						"workload.flows":  totalFlows(o.report),
						"dist.records_kB": float64(o.recordsLen) / 1e3,
					},
					Counts: map[string]float64{
						"fabric.attempts_per_cell": float64(o.grants) / float64(cells),
						"fabric.heartbeats":        heartbeats(o.status),
						"fabric.duplicates":        float64(o.status.DuplicateResults),
					},
				}
				switch {
				case len(o.report.Outcomes) != cells:
					return f, fmt.Errorf("fleet: merged report holds %d cells, want %d", len(o.report.Outcomes), cells)
				case o.report.Failed() != 0:
					return f, fmt.Errorf("fleet: %d failed outcomes", o.report.Failed())
				case !bytes.Equal(o.json, refJSON.Bytes()):
					return f, fmt.Errorf("fleet: merged JSON differs from in-memory RunCampaign")
				case !bytes.Equal(o.csv, refCSV.Bytes()):
					return f, fmt.Errorf("fleet: merged CSV differs from in-memory RunCampaign")
				}
				seen := map[string]bool{}
				for i := range o.report.Outcomes {
					k := o.report.Outcomes[i].Scenario.Key()
					if seen[k] {
						return f, fmt.Errorf("fleet: cell %s appears twice", k)
					}
					seen[k] = true
				}
				return f, nil
			},
		}, nil
	},
}

func heartbeats(st fabric.Status) float64 {
	var n int64
	for _, w := range st.Workers {
		n += w.Heartbeats
	}
	return float64(n)
}

func totalFlows(r *campaign.Report) float64 {
	n := 0
	for _, o := range r.Outcomes {
		if o.Result != nil {
			n += o.Result.Flows
		}
	}
	return float64(n)
}

// runFabric is the fleet op: coordinator + 2 in-process workers over a
// loopback HTTP server, then merge and both report encodings.
func runFabric(spec *campaign.Spec, dir string, sp *spanLog) (*fleetOut, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stream := filepath.Join(dir, "results.jsonl")
	sink, err := dist.CreateJSONL(stream, false)
	if err != nil {
		return nil, err
	}
	coord, err := fabric.New(spec, sink, nil, fabric.Options{})
	if err != nil {
		sink.Close()
		return nil, err
	}
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	const nWorkers = 2
	errs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &fabric.Client{Base: srv.URL, Worker: fmt.Sprintf("w%d", i)}
			_, errs[i] = fabric.RunWorker(ctx, client, fabric.WorkerOptions{
				Dir:          filepath.Join(dir, fmt.Sprintf("w%d", i)),
				WaitInterval: time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	cancel()
	srv.Close()
	closeErr := sink.Close()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fabric worker: %w", err)
		}
	}
	if closeErr != nil {
		return nil, closeErr
	}
	out := &fleetOut{status: coord.Status()}
	for _, c := range coord.Cells() {
		out.grants += len(c.Attempts)
	}
	if fi, err := os.Stat(stream); err == nil {
		out.recordsLen = fi.Size()
	}
	end := sp.begin("dist.merge")
	out.report, err = dist.Merge([]string{stream})
	end()
	if err != nil {
		return nil, err
	}
	var j, c bytes.Buffer
	if err := out.report.WriteJSON(&j); err != nil {
		return nil, err
	}
	if err := out.report.WriteCSV(&c); err != nil {
		return nil, err
	}
	out.json, out.csv = j.Bytes(), c.Bytes()
	return out, nil
}

// runSharded runs the campaign as two shards in sequence, each
// streaming to a JSONL sink with a checkpoint.
func runSharded(spec *campaign.Spec, dir string, sp *spanLog) error {
	defer sp.begin("dist.run_sharded")()
	for i := 0; i < 2; i++ {
		if err := runShard(spec, dir, i); err != nil {
			return err
		}
	}
	return nil
}

func runShard(spec *campaign.Spec, dir string, i int) error {
	sink, err := dist.CreateJSONL(filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i)), false)
	if err != nil {
		return err
	}
	ck, err := dist.OpenCheckpoint(filepath.Join(dir, fmt.Sprintf("shard%d.ck", i)))
	if err != nil {
		sink.Close()
		return err
	}
	_, err = dist.Run(spec, dist.Options{Workers: 2, Shard: dist.Shard{Index: i, Total: 2}, Checkpoint: ck}, sink)
	ck.Close() // Mark reported any write error; nothing is read back
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return err
}
