package stats

import "repro/internal/snapshot"

// PortableHistogram is a self-contained copy of a Histogram's counters
// for portable run snapshots (see the snapshot package doc): it owns its
// bin buffer and never aliases the source. The bin edges (Lo/Hi, bin
// count) are fixed at construction and must match between source and
// adopter.
type PortableHistogram struct {
	bins               []int
	under, over, total int
}

// ExportPortable deep-copies h's counters.
func (h *Histogram) ExportPortable() PortableHistogram {
	return PortableHistogram{
		bins:  snapshot.Clone(h.Bins),
		under: h.Under, over: h.Over, total: h.total,
	}
}

// AdoptPortable installs the portable counters into h.
func (h *Histogram) AdoptPortable(p PortableHistogram) {
	h.Bins = append(h.Bins[:0], p.bins...)
	h.Under, h.Over, h.total = p.under, p.over, p.total
}

// Bytes estimates the portable histogram's memory footprint.
func (p *PortableHistogram) Bytes() int { return snapshot.Size(p.bins) }
