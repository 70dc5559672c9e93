package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// sliceLen is the length of the slices a served window is cut into.
// Every end-to-end metric of a window is the median over its slices,
// so a burst of interference from other tenants of the machine that
// covers fewer than half of the slices does not move it.
const sliceLen = time.Second

// memEvery is the memory sampling period.
const memEvery = 5 * time.Millisecond

// sample is one completed operation: when it finished (since the window
// started), how long it took, its kind and the items it answered.
type sample struct {
	at    time.Duration
	dur   time.Duration
	heavy bool
	items int
}

// memSample is the live heap at one instant: the bytes the last garbage
// collection found reachable.
type memSample struct {
	at    time.Duration
	bytes uint64
}

// memSampler records the live heap every memEvery until stopped. Peak
// RSS (getrusage) and the runtime's mapped footprint both follow the
// collector's heap goal and the scavenger, not what the workload holds:
// peak RSS moved by 3x between runs of the offline workload, and the
// footprint by 50% between runs of the stream workload. The live heap is
// the memory the workload's state retains.
type memSampler struct {
	start   time.Time
	samples []memSample
	stop    chan struct{}
	once    sync.Once
	done    chan struct{}
}

func startMemSampler(start time.Time) *memSampler {
	m := &memSampler{start: start, stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *memSampler) run() {
	defer close(m.done)
	rs := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(memEvery)
	defer tick.Stop()
	for {
		metrics.Read(rs)
		m.samples = append(m.samples, memSample{time.Since(m.start), rs[0].Value.Uint64()})
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and returns its samples; it may be called
// more than once.
func (m *memSampler) finish() []memSample {
	m.once.Do(func() { close(m.stop) })
	<-m.done
	return m.samples
}

// slices cuts a window of length wall into sliceLen slices (the last
// one absorbs the remainder) and returns the slice index of an instant.
type slices struct {
	n    int
	wall time.Duration
}

func newSlices(wall time.Duration) slices {
	return slices{n: max(1, int(wall/sliceLen)), wall: wall}
}

func (s slices) index(at time.Duration) int {
	return min(max(int(at/sliceLen), 0), s.n-1)
}

func (s slices) length(i int) time.Duration {
	if i == s.n-1 {
		return s.wall - time.Duration(s.n-1)*sliceLen
	}
	return sliceLen
}

// windowMetrics are the end-to-end metrics of one served window: each
// the median over the window's slices of the slice's value.
func windowMetrics(wall time.Duration, ops []sample) map[string]float64 {
	sl := newSlices(wall)
	type bin struct {
		light, heavy []float64
		items        int
	}
	bins := make([]bin, sl.n)
	for _, o := range ops {
		b := &bins[sl.index(o.at)]
		us := float64(o.dur) / float64(time.Microsecond)
		if o.heavy {
			b.heavy = append(b.heavy, us)
		} else {
			b.light = append(b.light, us)
		}
		b.items += o.items
	}
	per := map[string][]float64{}
	add := func(name string, v float64, ok bool) {
		if ok {
			per[name] = append(per[name], v)
		}
	}
	for i, b := range bins {
		add("items_per_s", float64(b.items)/sl.length(i).Seconds(), true)
		add("light_p50_us", Percentile(b.light, 0.5), len(b.light) > 0)
		add("light_p90_us", Percentile(b.light, 0.9), len(b.light) > 0)
		add("heavy_p50_us", Percentile(b.heavy, 0.5), len(b.heavy) > 0)
		add("heavy_p90_us", Percentile(b.heavy, 0.9), len(b.heavy) > 0)
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = Median(v)
	}
	return out
}

// liveHeapMB is the median over a window's slices of the slice's peak
// live heap, in MiB.
func liveHeapMB(wall time.Duration, mem []memSample) float64 {
	sl := newSlices(wall)
	peaks := make([]float64, sl.n)
	for _, m := range mem {
		i := sl.index(m.at)
		peaks[i] = max(peaks[i], float64(m.bytes)/(1<<20))
	}
	return Median(peaks)
}
