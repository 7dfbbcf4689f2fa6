package scenario

import (
	"crypto/sha256"
	"os"
	"slices"
	"strings"
	"sync"

	"contra/internal/cliutil"
	"contra/internal/core"
	"contra/internal/policy"
	"contra/internal/topo"
)

// sharedBound is how many topologies, and how many compiled programs,
// the process keeps for the cells after the one that built them.
const sharedBound = 8

// shared is the process-wide memo of what cells on one topology and
// policy have in common: the built graph, and the parsed and compiled
// program. Nothing in it is written after it is published: graph
// queries and a program's P4 rendering are safe to run concurrently,
// and a cell that pre-fails a link does so on a copy of its own.
var shared struct {
	mu       sync.Mutex
	graphs   lru[string, *topo.Graph]
	programs lru[programKey, *core.Compiled]
}

// programKey names one compile: the graph, the policy source, and the
// options filled as core.Compile fills them, so that a policy swap back
// to the deployed policy (which recompiles with the running program's
// filled options) finds the deployed program.
type programKey struct {
	g    *topo.Graph
	src  string
	opts core.Options
}

// sharedTopology returns the graph of spec, built by the first cell in
// the process that named it. An @file spec is keyed by its path and the
// file's bytes, so an edited file is read afresh. The graph must not be
// written.
func sharedTopology(spec string) (*topo.Graph, error) {
	key := spec
	if strings.HasPrefix(spec, "@") {
		b, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		key = spec + "\x00" + string(sum[:])
	}
	shared.mu.Lock()
	g, ok := shared.graphs.get(key)
	shared.mu.Unlock()
	if ok {
		return g, nil
	}
	g, err := cliutil.BuildTopology(spec)
	if err != nil {
		return nil, err
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return shared.graphs.add(key, g), nil
}

// sharedProgram parses src over g's switch names and compiles it with
// opts, or returns what an earlier cell compiled from the same three. A
// graph the memo does not hold (a pre-failed cell's own copy) compiles
// uncached.
func sharedProgram(g *topo.Graph, src string, opts core.Options) (*core.Compiled, error) {
	opts.Fill(g)
	key := programKey{g, src, opts}
	shared.mu.Lock()
	comp, ok := shared.programs.get(key)
	held := shared.graphs.holds(g)
	shared.mu.Unlock()
	if ok {
		return comp, nil
	}
	pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
	if err != nil {
		return nil, err
	}
	if comp, err = core.Compile(g, pol, opts); err != nil || !held {
		return comp, err
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return shared.programs.add(key, comp), nil
}

// sharedRecompile is core.Compiled.Recompile through the memo: the
// policy swaps' compiler.
func sharedRecompile(c *core.Compiled, src string) (*core.Compiled, error) {
	return sharedProgram(c.Topo, src, c.Opts)
}

// lru holds at most sharedBound entries, the most recently used first.
// The caller holds shared.mu.
type lru[K, V comparable] []entry[K, V]

type entry[K, V comparable] struct {
	key K
	val V
}

func (c *lru[K, V]) get(k K) (v V, ok bool) {
	for i, e := range *c {
		if e.key == k {
			copy((*c)[1:i+1], (*c)[:i])
			(*c)[0] = e
			return e.val, true
		}
	}
	return v, false
}

// add puts v under k, evicting the least recently used entry when full,
// and returns it; or returns what k already holds: of two cells that
// built the same thing at once, the first to add it is the one every
// later cell shares.
func (c *lru[K, V]) add(k K, v V) V {
	if old, ok := c.get(k); ok {
		return old
	}
	if len(*c) < sharedBound {
		*c = append(*c, entry[K, V]{})
	}
	copy((*c)[1:], *c)
	(*c)[0] = entry[K, V]{k, v}
	return v
}

// holds reports whether v is one of the values held.
func (c lru[K, V]) holds(v V) bool {
	return slices.ContainsFunc(c, func(e entry[K, V]) bool { return e.val == v })
}
