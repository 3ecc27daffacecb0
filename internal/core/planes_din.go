package core

import "wlcrc/internal/memline"

// Plane-native DIN codec: storedLine and decodeStored around the fixed
// C1 mapping of the data planes, with the flag in the tail word.

// CompressedWritePlanes implements PlaneCompressionGate.
func (d *DIN) CompressedWritePlanes(planes []uint64) bool {
	return tailFlag(planes) == flagCompressed
}

// EncodePlanesInto implements PlaneScheme.
func (d *DIN) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var stored memline.Line
	l, flag := d.storedLine(data, &stored)
	rawEncodePlanes(l, dst)
	setTailFlag(dst, flag)
}

// DecodePlanesInto implements PlaneScheme.
func (d *DIN) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	if tailFlag(planes) != flagCompressed {
		rawDecodePlanes(planes, dst)
		return
	}
	words := storedWords(planes)
	*dst = d.decodeStored(&words)
}
