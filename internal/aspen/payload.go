package aspen

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/ctree"
)

// This file fixes the external (checkpoint, WAL and wire) form of an edge
// payload: ValueWidth bytes per edge, little-endian for the 4- and 8-byte
// scalars the repository instantiates (float32 weights, and uint64
// timestamps), so the bytes do not depend on the host's byte order. Other
// widths are written as their in-memory image. In-memory chunks keep
// their own (native) layout; this is only the serialized form.

// ValueWidth returns the external width of payload type V in bytes (0 for
// the id-only struct{}).
func ValueWidth[V ctree.Value]() int {
	var v V
	return int(unsafe.Sizeof(v))
}

// bytesOf views v's memory image.
func bytesOf[V ctree.Value](v *V) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(v)), unsafe.Sizeof(*v))
}

// PutValue writes v's external form to dst[:ValueWidth[V]()].
func PutValue[V ctree.Value](dst []byte, v V) {
	switch unsafe.Sizeof(v) {
	case 0:
	case 4:
		var u uint32
		copy(bytesOf(&u), bytesOf(&v))
		binary.LittleEndian.PutUint32(dst, u)
	case 8:
		var u uint64
		copy(bytesOf(&u), bytesOf(&v))
		binary.LittleEndian.PutUint64(dst, u)
	default:
		copy(dst, bytesOf(&v))
	}
}

// ReadValue decodes a payload written by PutValue from the start of src.
func ReadValue[V ctree.Value](src []byte) V {
	var v V
	switch unsafe.Sizeof(v) {
	case 0:
	case 4:
		u := binary.LittleEndian.Uint32(src)
		copy(bytesOf(&v), bytesOf(&u))
	case 8:
		u := binary.LittleEndian.Uint64(src)
		copy(bytesOf(&v), bytesOf(&u))
	default:
		copy(bytesOf(&v), src)
	}
	return v
}

// sameBits reports whether a and b have identical bit patterns — so a NaN
// weight equals itself and -0 differs from +0, where == would flip both.
func sameBits[V ctree.Value](a, b V) bool {
	return string(bytesOf(&a)) == string(bytesOf(&b))
}
