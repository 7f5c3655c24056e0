package sem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Lightweight checkpointing, mirroring FlashGraph's in-memory failure
// tolerance: the O(n) algorithm state (assignment, upper bounds, global
// sums, centroids, iteration counter) is persisted; row data stays on
// the SSDs and is never part of a checkpoint. The row cache and page
// cache are deliberately excluded — they are rebuilt after recovery,
// costing only warm-up I/O, never correctness.

const ckptMagic = 0x4b43504b // "KCPK"

var errBadCheckpoint = errors.New("sem: bad checkpoint file")

// Checkpoint writes the engine's recoverable state to path atomically
// and durably (write to temp, fsync, rename, fsync the directory).
func (e *Engine) Checkpoint(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	wr := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			w.Write(buf[:])
		}
	}
	wr(ckptMagic, uint64(e.iter), uint64(e.n), uint64(e.d), uint64(e.k))
	for _, v := range e.cents.Data {
		wr(math.Float64bits(v))
	}
	for _, a := range e.ps.Assign {
		wr(uint64(uint32(a)))
	}
	for _, v := range e.ps.UB {
		wr(math.Float64bits(v))
	}
	for _, v := range e.gsum.Sum {
		wr(math.Float64bits(v))
	}
	for _, c := range e.gsum.Count {
		wr(uint64(c))
	}
	// Sync the file before the rename and the directory after it, so a
	// crash at any point leaves either the old checkpoint or the whole
	// new one, never a truncated one.
	if err = w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// RestoreEngine loads a checkpoint into a freshly constructed engine.
// The engine must have been built with the same data and config shape
// (n, d, k are verified). The whole file is parsed into staging
// buffers before any engine state is touched: a truncated or corrupt
// checkpoint returns a descriptive error naming the damaged section
// and leaves the engine exactly as it was, never in a partial state.
func (e *Engine) RestoreEngine(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	readWords := func(section string, dst []uint64) error {
		var buf [8]byte
		for i := range dst {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return fmt.Errorf("sem: checkpoint %s: truncated in %s section (word %d of %d): %w",
					path, section, i, len(dst), err)
			}
			dst[i] = binary.LittleEndian.Uint64(buf[:])
		}
		return nil
	}

	hdr := make([]uint64, 5)
	if err := readWords("header", hdr); err != nil {
		return err
	}
	if hdr[0] != ckptMagic {
		return fmt.Errorf("%w: %s has magic %#x", errBadCheckpoint, path, hdr[0])
	}
	iterV, nV, dV, kV := hdr[1], hdr[2], hdr[3], hdr[4]
	if int(nV) != e.n || int(dV) != e.d || int(kV) != e.k {
		return fmt.Errorf("sem: checkpoint shape %dx%d k=%d does not match engine %dx%d k=%d",
			nV, dV, kV, e.n, e.d, e.k)
	}

	cents := make([]uint64, len(e.cents.Data))
	assign := make([]uint64, len(e.ps.Assign))
	ub := make([]uint64, len(e.ps.UB))
	sum := make([]uint64, len(e.gsum.Sum))
	count := make([]uint64, len(e.gsum.Count))
	for _, sec := range []struct {
		name string
		dst  []uint64
	}{
		{"centroids", cents},
		{"assignment", assign},
		{"upper-bounds", ub},
		{"global-sums", sum},
		{"cluster-counts", count},
	} {
		if err := readWords(sec.name, sec.dst); err != nil {
			return err
		}
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return fmt.Errorf("sem: checkpoint %s: trailing data after cluster-counts section", path)
	}

	// All sections parsed — commit atomically.
	for i, v := range cents {
		e.cents.Data[i] = math.Float64frombits(v)
	}
	for i, v := range assign {
		e.ps.Assign[i] = int32(uint32(v))
	}
	for i, v := range ub {
		e.ps.UB[i] = math.Float64frombits(v)
	}
	for i, v := range sum {
		e.gsum.Sum[i] = math.Float64frombits(v)
	}
	for i, v := range count {
		e.gsum.Count[i] = int64(v)
	}
	e.iter = int(iterV)
	e.converged = false
	// Bounds beyond UB (the TI lower-bound matrix) are not persisted;
	// reset them conservatively so pruning stays sound after recovery.
	if e.ps.LB != nil {
		for i := range e.ps.LB {
			e.ps.LB[i] = 0
		}
	}
	return nil
}
