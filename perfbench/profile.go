package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuProfile is a CPU profile being recorded into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stackSample is one profile sample: its CPU time and its stack of
// function names, innermost first (inlined frames expanded).
type stackSample struct {
	cpu   time.Duration
	stack []string
}

func (p *cpuProfile) stop() ([]stackSample, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return parseProfile(raw)
}

// The profile is the protocol-buffer message of
// github.com/google/pprof/proto/profile.proto; only the fields the
// attribution needs are decoded.

// pbField is one decoded protocol-buffer field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedUints decodes a repeated integer field, packed or not.
func repeatedUints(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) ([]stackSample, error) {
	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		valueType int                     // index of the cpu nanoseconds value
	)
	sampleTypes := 0
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type: Go writes samples/count, then cpu/nanoseconds
			sampleTypes++
			valueType = sampleTypes - 1
		case 2: // sample
			var s sample
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = repeatedUints(g, s.locs)
				case 2:
					s.vals, err = repeatedUints(g, s.vals)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueType >= len(s.vals) {
			return nil, errors.New("profile: sample without cpu value")
		}
		st := stackSample{cpu: time.Duration(s.vals[valueType])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.stack = append(st.stack, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Attribution groups: each davide module named below, runtime (with
// garbage collection apart), system calls and network I/O,
// encoding/json, the benchmark's own code, and other.
var moduleGroups = []string{
	"sensor", "monitors", "gateway", "wire", "mqtt", "telemetry", "tsdb",
	"fleet", "sched", "capping", "predictor", "chaos", "scenario",
	"energyserve", "core",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// groupOf attributes one sample to a group: garbage collection if any
// frame belongs to it, otherwise the innermost frame in a tracked
// package. Standard-library and runtime helpers (copying, allocation,
// reflection, formatting) are charged to their innermost tracked caller;
// runtime time with no tracked caller (scheduling, polling, timers) is
// "runtime".
func groupOf(stack []string) string {
	for _, fn := range stack {
		for _, gc := range gcFrames {
			if fn == gc {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		switch {
		case strings.HasPrefix(pkg, "davide/internal/"):
			mod := strings.TrimPrefix(pkg, "davide/internal/")
			for _, g := range moduleGroups {
				if mod == g {
					return g
				}
			}
			return "other"
		case pkg == "main" || pkg == "davide/perfbench":
			return "bench"
		case pkg == "syscall" || pkg == "net" || pkg == "internal/poll" ||
			pkg == "internal/runtime/syscall" || pkg == "os":
			return "syscall"
		case pkg == "encoding/json":
			return "encoding_json"
		}
	}
	if len(stack) > 0 && packageOf(stack[len(stack)-1]) == "runtime" {
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a profiled function name such
// as "davide/internal/tsdb.(*DB).AppendBatch".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribute sums profiled CPU time per group; every group is present.
func attribute(samples []stackSample) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, g := range attributionGroups() {
		out[g] = 0
	}
	for _, s := range samples {
		out[groupOf(s.stack)] += s.cpu
	}
	return out
}

func attributionGroups() []string {
	return append(append([]string(nil), moduleGroups...),
		"runtime", "runtime.gc", "syscall", "encoding_json", "bench", "other")
}
