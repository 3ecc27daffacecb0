package sim

import (
	"fmt"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
)

// Read-back helpers of the sim tests. The engine never reads a line
// back or enumerates residency; the tests check what it stored.

// readLine decodes the current content of addr the way a controller
// read would: fetch the physically stored states, run the ECC recovery
// against the line's stored parity when it has stuck cells, then decode
// the scheme. ok=false means the address was never written; an error
// means the line is uncorrectably corrupted (deterministically so).
// A healthy-line read decodes the arena slot directly; the fault path
// materializes cells for the ECC recovery and packs the recovered line
// into the encode scratch to decode.
func (u *shard) readLine(addr uint64, dst *memline.Line) (ok bool, err error) {
	slot, ok := u.arena.Lookup(addr)
	if !ok {
		return false, nil
	}
	planes := u.arena.Planes(slot)
	ctr := u.ctrOf(slot)
	if u.fm == nil {
		u.planeEnc.DecodeCtrPlanesInto(planes, addr, ctr, dst)
		return true, nil
	}
	n := u.scheme.TotalCells()
	phys := u.cellsOld[:n]
	coset.UnpackLine(planes, phys)
	cells, recOK := u.fm.Recover(addr, phys, u.cellsNew[:n], &u.eccSc)
	if !recOK {
		return true, fmt.Errorf("sim: %s: uncorrectable read at addr %#x", u.scheme.Name(), addr)
	}
	coset.PackLine(cells, u.scratch)
	u.planeEnc.DecodeCtrPlanesInto(u.scratch, addr, ctr, dst)
	return true, nil
}

// eachResident calls fn with every line address resident in the
// shard's arena, in slot order.
func (u *shard) eachResident(fn func(addr uint64)) {
	for s := 0; s < u.arena.Len(); s++ {
		fn(u.arena.Addr(s))
	}
}
