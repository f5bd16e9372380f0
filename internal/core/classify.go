package core

import (
	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// Referent classification helpers for the diagnostic checkers. They
// operate on referent paths as found in points-to pairs; a nil path (no
// referent) classifies as nothing.

// IsMarkerRef reports whether p is rooted at a diagnostics marker base
// (<null> or <uninit>).
func IsMarkerRef(p *paths.Path) bool {
	b := p.Base()
	return b != nil && b.Marker()
}

// IsNullRef reports whether p is the <null> marker location.
func IsNullRef(p *paths.Path) bool {
	b := p.Base()
	return b != nil && b.Kind == paths.NullBase
}

// IsUninitRef reports whether p is the <uninit> marker location.
func IsUninitRef(p *paths.Path) bool {
	b := p.Base()
	return b != nil && b.Kind == paths.UninitBase
}

// IsHeapRef reports whether p denotes storage minted by an allocation
// site.
func IsHeapRef(p *paths.Path) bool {
	b := p.Base()
	return b != nil && b.Kind == paths.HeapBase
}

// HeapReferents returns the distinct heap bases among the referents of
// the ε-path pairs on out, in first-seen order.
func (r *Result) HeapReferents(out *vdg.Output) []*paths.Base {
	var bases []*paths.Base
	seen := make(map[*paths.Base]bool)
	for _, ref := range r.Pairs(out).Referents() {
		if !IsHeapRef(ref) {
			continue
		}
		if b := ref.Base(); !seen[b] {
			seen[b] = true
			bases = append(bases, b)
		}
	}
	return bases
}
