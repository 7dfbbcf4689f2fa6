package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof CPU profile format (gzip-compressed
// protobuf, github.com/google/pprof/proto/profile.proto). The module
// has no dependencies, so the four message types the attribution needs
// are decoded by hand: Profile{sample=2, location=4, function=5,
// string_table=6}, Sample{location_id=1, value=2}, Location{id=1,
// line=4}, Line{function_id=1}, Function{id=1, name=2}.

// stackSample is one profile sample: function names leaf first, with
// inlined frames expanded, and the sample count.
type stackSample struct {
	stack []string
	count int64
}

var errProto = errors.New("bench: malformed profile")

func uvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, rest, err := uvarint(b)
		if err != nil {
			return err
		}
		b = rest
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, rest, err := uvarint(b)
			if err != nil {
				return err
			}
			b = rest
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := uvarint(b)
			if err != nil || n > uint64(len(rest)) {
				return errProto
			}
			if err := fn(num, 0, rest[:n]); err != nil {
				return err
			}
			b = rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// repeatedUvarint appends a repeated integer field's values, packed
// (data != nil) or not.
func repeatedUvarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, rest, err := uvarint(data)
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
		data = rest
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof profile into stacks of
// function names.
func parseProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = fields(b, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := fields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedUvarint(s.locs, v, data)
				case 2:
					s.vals, err = repeatedUvarint(s.vals, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Layer attribution.

// cpuLayers are the layers CPU samples are partitioned into; each has
// a "<layer>.cpu_frac" per-layer metric, and the fractions sum to 1.
var cpuLayers = []string{
	"sim.engine", "sim.network", "sim.transport", "stats", "topo",
	"dataplane.probe", "dataplane.data", "baseline",
	"policy", "analysis", "automata", "pg", "core",
	"workload", "scenario", "campaign", "dist", "fabric", "other",
}

// pkgLayers maps a repo package to its layer when the whole package is
// one layer.
var pkgLayers = map[string]string{
	"stats": "stats", "topo": "topo", "baseline": "baseline",
	"policy": "policy", "analysis": "analysis", "automata": "automata",
	"pg": "pg", "core": "core", "workload": "workload",
	"scenario": "scenario", "campaign": "campaign", "dist": "dist", "fabric": "fabric",
}

const internalPrefix = "contra/internal/"

// splitFrame splits "contra/internal/sim.(*Engine).Run" into
// ("sim", "(*Engine).Run"); ok is false for frames outside
// contra/internal.
func splitFrame(fn string) (pkg, name string, ok bool) {
	if !strings.HasPrefix(fn, internalPrefix) {
		return "", "", false
	}
	rest := fn[len(internalPrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "", "", false
	}
	return rest[:dot], rest[dot+1:], true
}

func hasAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// simLayer splits the sim package: the event engine and its calendar
// queue, the host transport, and (everything else) the network of
// channels, switch devices and packet pool.
func simLayer(name string) string {
	switch {
	case hasAny(name, "calQueue", "(*Engine)", "(*event)", "NewEngine"):
		return "sim.engine"
	case hasAny(name, "HostDev", "flowState", "StartFlows", "startCBR", "recordFCT"):
		return "sim.transport"
	}
	return "sim.network"
}

// dataplaneLayer classifies one dataplane function as probe path, data
// path, or "" when it is shared (Handle, expiry helpers) and the
// caller decides.
func dataplaneLayer(name string) string {
	switch {
	case hasAny(name, "handleProbe", "handlePacked", "flushPacked", "originate", "rescanBest",
		"updateBest", "suppressAdvert", "recordAdvert", "markPending", "recomputeAdv",
		"policyRank", "sweep", "Attach"):
		return "dataplane.probe"
	case hasAny(name, "handleData", "forwardFromSource", "forwardTransit", "emit", "lookupAlive",
		"bestHop", "loopDetect", "ecmpPick", "eachChoice", "scanAlt", "flowletHash", "pktHash",
		"noteAlt", "override", "recordDecision"):
		return "dataplane.data"
	}
	return ""
}

// layerOf attributes a stack (leaf first) to the layer of its
// innermost contra/internal frame, so runtime work (map hashing,
// allocation) triggered by a layer is charged to that layer. Stacks
// with no such frame — GC workers, the harness, net/http serving
// loops — are "other".
func layerOf(stack []string) string {
	for i, fn := range stack {
		pkg, name, ok := splitFrame(fn)
		if !ok {
			continue
		}
		switch pkg {
		case "sim":
			return simLayer(name)
		case "dataplane":
			// Shared helpers take the side of the nearest enclosing
			// dataplane function that has one.
			for _, up := range stack[i:] {
				p, n, ok := splitFrame(up)
				if !ok || p != "dataplane" {
					break
				}
				if l := dataplaneLayer(n); l != "" {
					return l
				}
			}
			return "other"
		}
		if l, ok := pkgLayers[pkg]; ok {
			return l
		}
		return "other"
	}
	return "other"
}

// runtimeCost classifies a stack by its leaf-side run of runtime
// frames into a cross-cutting cost: "alloc_gc", "map", "math" or "".
func runtimeCost(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "math."):
			return "math"
		case strings.HasPrefix(fn, "internal/runtime/maps."),
			strings.HasPrefix(fn, "runtime.map"),
			hasAny(fn, "runtime.memhash", "runtime.aeshash", "runtime.strhash", "runtime.nilinterhash",
				"runtime.interhash", "runtime.typehash"):
			return "map"
		case hasAny(fn, "runtime.mallocgc", "runtime.growslice", "runtime.newobject", "runtime.makeslice",
			"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssist", "runtime.scanobject",
			"runtime.bgsweep", "runtime.sweepone", "runtime.(*mcache)", "runtime.(*mcentral)",
			"runtime.(*mheap)", "runtime.(*mspan)", "runtime.wbBufFlush", "runtime.gcStart",
			"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgscavenge"):
			return "alloc_gc"
		case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/"):
			continue
		}
		return ""
	}
	return ""
}

// phaseFrames are the per-cell phases: a sample counts toward a phase
// when any frame of its stack is the phase's function (cumulative).
var phaseFrames = map[string]string{
	"scenario.phase.topo_frac":       "contra/internal/cliutil.BuildTopology",
	"scenario.phase.compile_frac":    "contra/internal/core.Compile",
	"scenario.phase.deploy_frac":     "contra/internal/scenario.Deploy",
	"scenario.phase.attach_frac":     "contra/internal/sim.(*Network).Start",
	"scenario.phase.workload_frac":   "contra/internal/workload.Generate",
	"scenario.phase.engine_run_frac": "contra/internal/sim.(*Engine).Run",
}

// attribute folds profile samples into the CPU-derived per-layer
// metrics.
func attribute(samples []stackSample) map[string]float64 {
	layer := map[string]int64{}
	cost := map[string]int64{}
	phase := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.count
		layer[layerOf(s.stack)] += s.count
		if c := runtimeCost(s.stack); c != "" {
			cost[c] += s.count
		}
		for metric, frame := range phaseFrames {
			for _, fn := range s.stack {
				if fn == frame {
					phase[metric] += s.count
					break
				}
			}
		}
	}
	frac := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	out := map[string]float64{"trace.samples": float64(total)}
	for _, l := range cpuLayers {
		out[l+".cpu_frac"] = frac(layer[l])
	}
	for _, c := range []string{"alloc_gc", "map", "math"} {
		out["runtime."+c+"_frac"] = frac(cost[c])
	}
	for metric := range phaseFrames {
		out[metric] = frac(phase[metric])
	}
	return out
}
