package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the self-CPU buckets a traced run reports, as
// "cpu.<bucket>". Every profile sample lands in exactly one.
var cpuBuckets = []string{
	"filterc", "sim", "pedf", "mach", "obs", "lowdbg", "core", "cli",
	"analysis", "ckpt", "serve", "router",
	"gc", "sched", "alloc", "json", "net", "other", "bench",
}

// clientPkg is the benchmark's wire-client package: a sample whose stack
// passes through it is the generator's own cost.
const clientPkg = "dfdbg/dfbench/client."

// layerOf maps a program package (below dfdbg/internal/) to its bucket.
// Packages the list does not name fall to "other".
var layerOf = map[string]string{
	"filterc": "filterc", "sim": "sim", "pedf": "pedf", "mach": "mach",
	"obs": "obs", "trace": "obs", // trace is a view over the obs stream
	"lowdbg": "lowdbg", "dbginfo": "lowdbg",
	"core": "core", "cli": "cli", "analysis": "analysis",
	"ckpt": "ckpt", "serve": "serve", "web": "serve", "router": "router",
}

// Runtime functions that identify a bucket when the leaf-first walk
// reaches them. Runtime helpers not listed here (memmove, map access,
// hashing, ...) are charged to their caller.
var (
	gcRoots = map[string]bool{
		"gcBgMarkWorker": true, "bgsweep": true, "bgscavenge": true,
		"gcAssistAlloc": true, "gcAssistAlloc1": true, "gcStart": true,
		"gcMarkDone": true, "gcMarkTermination": true, "markroot": true,
		"GC": true, "_GC": true,
	}
	allocFuncs = map[string]bool{
		"newobject": true, "newarray": true, "makeslice": true,
		"makeslicecopy": true, "growslice": true, "makemap": true,
		"makemap_small": true, "makechan": true, "rawstring": true,
		"rawbyteslice": true, "rawruneslice": true, "convTslice": true,
		"convTstring": true, "convT": true, "convT64": true, "convT32": true,
		"convT16": true,
	}
	schedFuncs = map[string]bool{
		"park_m": true, "schedule": true, "findRunnable": true,
		"gopark": true, "goparkunlock": true, "goready": true, "ready": true,
		"chanrecv": true, "chanrecv1": true, "chanrecv2": true,
		"chansend": true, "chansend1": true, "selectgo": true,
		"closechan": true, "mcall": true, "gosched_m": true,
		"goschedImpl": true, "Gosched": true, "gogo": true, "goexit0": true,
		"stealWork": true, "runqsteal": true, "runqgrab": true,
		"netpoll": true, "notesleep": true, "notewakeup": true,
		"notetsleep_internal": true, "notetsleepg": true,
		"futexsleep": true, "futexwakeup": true, "futex": true,
		"lock2": true, "unlock2": true, "semacquire1": true,
		"semrelease1": true, "wakep": true, "startm": true, "stopm": true,
		"handoffp": true, "resetspinning": true, "mstart": true,
		"procyield": true, "osyield": true, "usleep": true,
		"newproc": true, "newproc1": true, "sysmon": true,
		"_System": true,
	}
)

// bucketOf assigns one sample, given its stack as function names leaf
// first. A stack through the benchmark's client code is "bench".
// Otherwise the walk goes from the leaf towards the root: a GC root
// anywhere makes it "gc"; the first frame that names a bucket decides
// (runtime allocation, scheduling, JSON, network, a program layer, the
// benchmark's own main package); standard-library and runtime helpers
// are charged to their caller. A stack nothing claims is "other".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, clientPkg) {
			return "bench"
		}
	}
	for _, fn := range stack {
		if name, ok := strings.CutPrefix(fn, "runtime."); ok && gcRoots[name] {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg, name := splitFunc(fn)
		switch {
		case pkg == "runtime":
			switch {
			case allocFuncs[name] || strings.HasPrefix(name, "mallocgc"):
				return "alloc"
			case schedFuncs[name]:
				return "sched"
			}
		case pkg == "encoding/json" || pkg == "encoding/base64":
			return "json"
		case pkg == "net" || strings.HasPrefix(pkg, "net/") ||
			pkg == "internal/poll" || pkg == "syscall" || pkg == "os":
			return "net"
		case strings.HasPrefix(pkg, "dfdbg/internal/"):
			top, _, _ := strings.Cut(strings.TrimPrefix(pkg, "dfdbg/internal/"), "/")
			if b, ok := layerOf[top]; ok {
				return b
			}
			return "other"
		case pkg == "main" || strings.HasPrefix(pkg, "dfdbg/dfbench"):
			return "bench"
		}
	}
	return "other"
}

// splitFunc splits a symbol like "dfdbg/internal/sim.(*Kernel).Run" into
// its package path and the rest.
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// cpuShares buckets every sample of a gzipped pprof CPU profile and
// returns each bucket's share of the samples (summing to 1) and the
// sample count.
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	stacks, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.funcs)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, total, nil
}

// stackSample is one profile sample: its stack leaf first and its count.
type stackSample struct {
	funcs []string
	count int64
}

// parseProfile decodes the parts of a gzipped profile.proto message a
// bucket needs: samples, locations (with inlined lines), functions and
// the string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value []int64
	}
	var (
		samples  []sample
		locLines = make(map[uint64][]uint64) // location -> function ids, innermost first
		funcName = make(map[uint64]int64)    // function -> string index
		strs     []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.value = append(s.value, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var fns []string
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				fns = append(fns, str(funcName[fid]))
			}
		}
		var n int64 = 1
		if len(s.value) > 0 {
			n = s.value[0]
		}
		out = append(out, stackSample{funcs: fns, count: n})
	}
	return out, nil
}

// appendVarints appends a repeated varint field that may be packed.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// walkFields calls fn for each field of one protobuf message: varints
// arrive in v, length-delimited fields in b; fixed-width fields are
// skipped.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
