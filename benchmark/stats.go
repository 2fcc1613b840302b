package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; NaN when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rate returns a workload's throughput in units of work per second from
// its samples — sweeps, flood windows or farm rounds — given each
// sample's milliseconds per unit: the rate at the first quartile of
// those times. Other tenants of a shared machine slow a run down, never
// speed it up, and they do so in phases that last seconds to minutes.
// The mean and the median follow those phases; the first quartile reads
// the program's own speed through them.
func rate(msPerUnit []float64) float64 { return 1e3 / quantile(msPerUnit, 0.25) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const mib = 1 << 20

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memSnap is the part of runtime.MemStats the runtime metrics difference.
type memSnap struct {
	numGC      uint32
	pauseNS    uint64
	totalAlloc uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{numGC: m.NumGC, pauseNS: m.PauseTotalNs, totalAlloc: m.TotalAlloc}
}

// digest hashes the (Time, Informed, Messages) triple of every trial or
// window a run checks, in order, so two runs at one seed can be compared
// by one string.
type digest struct {
	h   hash.Hash64
	ops int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(time, informed int, messages int64) {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(int64(time)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(informed)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(messages))
	d.h.Write(buf[:])
	d.ops++
}

func (d *digest) String() string { return fmt.Sprintf("%016x/%d", d.h.Sum64(), d.ops) }
