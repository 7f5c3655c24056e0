package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"knor/internal/blas"
	"knor/internal/kmeans"
)

// FuzzAccumPayload: the accumulator block decoder never panics on
// arbitrary bytes and accepts only blocks of exactly its own k×d shape
// and element width, which re-encode to the same bytes; encodeAccum's
// output round-trips bit for bit at both widths; a wrong shape or a
// wrong length is an error.
func FuzzAccumPayload(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{1, 0, 0, 0, 1, 0, 0, 0},
		bytes.Repeat([]byte{0xff}, 200),
		encodeAccum(kmeans.NewAccumOf[float64](2, 3), kmeans.IterStats{DistCalcs: 7}),
		encodeAccum(kmeans.NewAccumOf[float32](1, 1), kmeans.IterStats{RowsChanged: 3}),
	} {
		f.Add(uint8(1), uint8(0), seed)
	}
	f.Fuzz(func(t *testing.T, kRaw, dRaw uint8, data []byte) {
		k, d := int(kRaw)%4+1, int(dRaw)%4+1
		checkAccumBlock[float64](t, k, d, data)
		checkAccumBlock[float32](t, k, d, data)
	})
}

func checkAccumBlock[T blas.Float](t *testing.T, k, d int, data []byte) {
	t.Helper()
	// Arbitrary bytes: decode only what is exactly a k×d block.
	if a, st, err := decodeAccum[T](data, k, d); err == nil {
		if re := encodeAccum(a, st); !bytes.Equal(re, data) {
			t.Fatalf("k=%d d=%d width %d: accepted %d bytes that re-encode to %d different ones",
				k, d, blas.ElemBytes[T](), len(data), len(re))
		}
	}

	// Round trip: an accumulator and stats filled from the fuzz bytes
	// (any bit patterns, NaNs included) survive encode→decode exactly.
	src := kmeans.NewAccumOf[T](k, d)
	word := func(i int) uint64 {
		var b [8]byte
		for j := range b {
			if len(data) > 0 {
				b[j] = data[(8*i+j)%len(data)]
			}
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	for i := range src.Count {
		src.Count[i] = int64(word(i))
	}
	for i := range src.Sum {
		src.Sum[i] = fromBits[T](word(k + i))
	}
	st := kmeans.IterStats{DistCalcs: word(1), PrunedC1: word(2), RowsChanged: int(word(3)), RowCacheHits: word(4)}
	block := encodeAccum(src, st)
	got, gotSt, err := decodeAccum[T](block, k, d)
	if err != nil {
		t.Fatalf("k=%d d=%d: round trip: %v", k, d, err)
	}
	if !bytes.Equal(encodeAccum(got, gotSt), block) || gotSt != st {
		t.Fatalf("k=%d d=%d width %d: round trip changed the bits", k, d, blas.ElemBytes[T]())
	}

	// Wrong shape and wrong length are errors.
	if _, _, err := decodeAccum[T](block, k+1, d); err == nil {
		t.Fatalf("k=%d d=%d: block accepted as %dx%d", k, d, k+1, d)
	}
	if _, _, err := decodeAccum[T](block, k, d+1); err == nil {
		t.Fatalf("k=%d d=%d: block accepted as %dx%d", k, d, k, d+1)
	}
	if _, _, err := decodeAccum[T](append(block, 0), k, d); err == nil {
		t.Fatalf("k=%d d=%d: block with a trailing byte accepted", k, d)
	}
	if _, _, err := decodeAccum[T](block[:len(block)-1], k, d); err == nil {
		t.Fatalf("k=%d d=%d: truncated block accepted", k, d)
	}
}

// fromBits reinterprets the low bits of u as a T.
func fromBits[T blas.Float](u uint64) T {
	var v T
	switch p := any(&v).(type) {
	case *float32:
		*p = math.Float32frombits(uint32(u))
	case *float64:
		*p = math.Float64frombits(u)
	}
	return v
}
