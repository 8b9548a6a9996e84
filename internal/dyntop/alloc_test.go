package dyntop

import (
	"testing"

	"repro/internal/emio"
	"repro/internal/geom"
)

// updateAllocCeiling bounds the heap allocations of one Insert+Delete
// pair on the tree below. The measured value is 99 (go1.24, linux/amd64);
// the ceiling adds a 20% margin for toolchain differences and sits far
// below the 349 that a per-call critical-span slice, a per-admit frame
// and a per-pin closure cost.
const updateAllocCeiling = 120

// TestUpdateAllocations pins the allocation cost of the update path:
// every ancestor's rebuild admits, pins and unpins its children's
// critical records, which must not allocate per child.
func TestUpdateAllocations(t *testing.T) {
	pts := geom.GenUniform(4097, 1<<30, 5)
	extra := pts[len(pts)-1]
	_, tr := buildTree(t, emio.Config{B: 64, M: 4096}, 0.5, pts[:len(pts)-1])
	allocs := testing.AllocsPerRun(50, func() {
		tr.Insert(extra)
		if !tr.Delete(extra) {
			t.Fatal("Delete after Insert reported absent")
		}
	})
	t.Logf("Insert+Delete: %.0f allocs", allocs)
	if allocs > updateAllocCeiling {
		t.Fatalf("Insert+Delete allocated %.0f times, ceiling %d", allocs, updateAllocCeiling)
	}
}
