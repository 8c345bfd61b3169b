package xfer

import "dstune/internal/dataset"

// diskState is the disk-to-disk bookkeeping of a Sim transfer: a queue
// of files, the file each process is currently moving, and the
// per-file request latency that the pipelining parameter amortizes
// (the paper's future-work item (1), following Yildirim et al. [25]).
type diskState struct {
	queue     []float64 // bytes of the files not yet started, in order
	cur       []float64 // per-process bytes left of its current file; <= 0 means idle
	busyUntil []float64 // per-process: requesting/seeking until this time

	filesDone  int
	epochFiles int
	active     int // processes moving a file this step
}

// The disk model's constants, which no scenario varies.
const (
	// diskRate is the source storage array's aggregate bandwidth in
	// bytes per second, shared equally by the processes moving data.
	diskRate = 2e9
	// fileOverhead is the per-file request-and-seek latency in seconds
	// (control-channel round trip plus metadata access): the cost the
	// pipelining depth amortizes.
	fileOverhead = 0.5
)

// newDiskState builds the state for a dataset.
func newDiskState(d dataset.Dataset) *diskState {
	ds := &diskState{queue: make([]float64, 0, d.Count())}
	for _, size := range d.Sizes {
		if size <= 0 {
			ds.filesDone++ // empty files complete immediately
			continue
		}
		ds.queue = append(ds.queue, float64(size))
	}
	return ds
}

// resize prepares per-process state for nc freshly launched processes.
func (d *diskState) resize(nc int) {
	d.cur = make([]float64, nc)
	d.busyUntil = make([]float64, nc)
}

// requeueInFlight returns all in-flight files to the head of the
// queue; the restarted processes will re-request them.
func (d *diskState) requeueInFlight() {
	var back []float64
	for _, c := range d.cur {
		if c > 0 {
			back = append(back, c)
		}
	}
	d.queue = append(back, d.queue...)
	d.cur = nil
	d.busyUntil = nil
}

// assign hands files to idle processes, charging each new file the
// request latency amortized by the pipelining depth, and counts the
// processes actively moving data this step.
func (d *diskState) assign(now float64, pp int) {
	if pp < 1 {
		pp = 1
	}
	d.active = 0
	for i := range d.cur {
		if d.cur[i] <= 0 && len(d.queue) > 0 {
			d.cur[i] = d.queue[0]
			d.queue = d.queue[1:]
			d.busyUntil[i] = now + fileOverhead/float64(pp)
		}
		if d.cur[i] > 0 && now >= d.busyUntil[i] {
			d.active++
		}
	}
}

// capFor combines the CPU cap with the storage share for process i:
// blocked (-1) while requesting or idle, otherwise the minimum of the
// CPU cap and an equal share of the disk bandwidth.
func (d *diskState) capFor(i int, now, cpuCap float64) float64 {
	if i >= len(d.cur) || d.cur[i] <= 0 || now < d.busyUntil[i] {
		return -1
	}
	c := cpuCap
	if d.active > 0 {
		share := diskRate / float64(d.active)
		if share < c {
			c = share
		}
	}
	return c
}

// consume applies delta delivered bytes to process i's current file
// and returns the bytes actually consumed (excess beyond the file's
// remainder is a pipeline bubble and is discarded).
func (d *diskState) consume(i int, delta float64) float64 {
	if i >= len(d.cur) || d.cur[i] <= 0 || delta <= 0 {
		return 0
	}
	c := delta
	if c > d.cur[i] {
		c = d.cur[i]
	}
	d.cur[i] -= c
	if d.cur[i] <= 1e-6 {
		d.cur[i] = 0
		d.filesDone++
		d.epochFiles++
	}
	return c
}

// finished reports whether every file has completed.
func (d *diskState) finished() bool {
	if len(d.queue) > 0 {
		return false
	}
	for _, c := range d.cur {
		if c > 0 {
			return false
		}
	}
	return true
}
