package topo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Parse reads a topology from a simple line-oriented text format used by
// the CLI tools:
//
//	# comment
//	node <name> switch|host
//	link <a> <b> [bandwidth] [delay]
//
// Bandwidth accepts suffixes K/M/G (bits per second, e.g. "10G");
// delay accepts ns/us/ms suffixes (e.g. "5us") and is at most one hour,
// so that path latencies, and twice the longest, fit in an int64.
// Defaults are 10G and 1us.
func Parse(r io.Reader, name string) (*Graph, error) {
	g := New(name)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: node needs a name", lineNo)
			}
			kind := Switch
			if len(fields) >= 3 {
				switch fields[2] {
				case "switch":
					kind = Switch
				case "host":
					kind = Host
				default:
					return nil, fmt.Errorf("line %d: unknown node kind %q", lineNo, fields[2])
				}
			}
			if _, dup := g.NodeByName(fields[1]); dup {
				return nil, fmt.Errorf("line %d: duplicate node %q", lineNo, fields[1])
			}
			g.AddNode(fields[1], kind)
		case "link":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: link needs two endpoints", lineNo)
			}
			a, ok := g.NodeByName(fields[1])
			if !ok {
				return nil, fmt.Errorf("line %d: unknown node %q", lineNo, fields[1])
			}
			b, ok := g.NodeByName(fields[2])
			if !ok {
				return nil, fmt.Errorf("line %d: unknown node %q", lineNo, fields[2])
			}
			if a == b {
				return nil, fmt.Errorf("line %d: self loop on %q", lineNo, fields[1])
			}
			bw := DefaultFabricBW
			var delay int64 = DCDelay
			if len(fields) >= 4 {
				v, err := ParseBandwidth(fields[3])
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				bw = v
			}
			if len(fields) >= 5 {
				v, err := ParseDuration(fields[4])
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				if v > maxLinkDelay {
					return nil, fmt.Errorf("line %d: delay %q is over the 1h bound", lineNo, fields[4])
				}
				delay = v
			}
			g.AddLink(a, b, bw, delay)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// maxLinkDelay bounds a parsed link's one-way delay: one hour.
const maxLinkDelay = int64(time.Hour)

// ParseBandwidth parses "10G", "500M", "1.5G", or a bare bits/second
// number. The result is finite and positive.
func ParseBandwidth(s string) (float64, error) {
	mult, num := 1.0, s
	switch {
	case strings.HasSuffix(s, "G"):
		mult, num = 1e9, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, num = 1e6, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, num = 1e3, strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad bandwidth %q", num)
	}
	if math.IsNaN(v) || math.IsInf(v*mult, 0) {
		return 0, fmt.Errorf("bandwidth %q is not finite", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("bandwidth must be positive, got %v", v)
	}
	return v * mult, nil
}

// ParseDuration parses "5us", "1ms", "300ns" or a bare nanosecond count
// into nanoseconds. The value must be finite, non-negative and fit in
// an int64.
func ParseDuration(s string) (int64, error) {
	mult, num := 1.0, s
	switch {
	case strings.HasSuffix(s, "ms"):
		mult, num = 1e6, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "us"):
		mult, num = 1e3, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ns"):
		mult, num = 1, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "s"):
		mult, num = 1e9, strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", num)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("duration %q is not finite", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("duration must be non-negative, got %v", v)
	}
	// float64(math.MaxInt64) rounds up to 2^63, the first value that
	// does not convert.
	if v*mult >= math.MaxInt64 {
		return 0, fmt.Errorf("duration %q overflows int64 nanoseconds", s)
	}
	return int64(v * mult), nil
}

// Format renders g in the Parse text format.
func Format(w io.Writer, g *Graph) error {
	for _, n := range g.Nodes() {
		if _, err := fmt.Fprintf(w, "node %s %s\n", n.Name, n.Kind); err != nil {
			return err
		}
	}
	for _, l := range g.Links() {
		_, err := fmt.Fprintf(w, "link %s %s %g %d\n",
			g.Node(l.A).Name, g.Node(l.B).Name, l.Bandwidth, l.Delay)
		if err != nil {
			return err
		}
	}
	return nil
}
