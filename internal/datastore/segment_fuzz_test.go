package datastore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"campuslab/internal/traffic"
)

// fuzzSeedSegment builds a small deterministic segment blob of n rows for
// the fuzz seed corpus (mirrors segTestRows but without *testing.T
// plumbing).
func fuzzSeedSegment(n int) []byte {
	g := traffic.NewCampus(traffic.Profile{
		Plan: traffic.DefaultPlan(8), FlowsPerSecond: 40,
		Duration: time.Second, Seed: 7,
	})
	s := NewSharded(1)
	for _, f := range traffic.Collect(g, 0) {
		f := f
		s.IngestFrame(&f)
	}
	var rows []StoredPacket
	s.Scan(func(sp *StoredPacket) bool {
		rows = append(rows, *sp)
		return len(rows) < n
	})
	blob, _, err := encodeSegment(rows)
	if err != nil {
		panic(err)
	}
	return blob
}

// restampSegVersion returns a copy of blob with its header version set to
// v and the header checksum recomputed, so only the version is wrong.
func restampSegVersion(blob []byte, v uint16) []byte {
	out := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint16(out[4:6], v)
	binary.LittleEndian.PutUint32(out[44:48], crc32.ChecksumIEEE(out[:44]))
	return out
}

// FuzzSegmentDecode: for arbitrary bytes, the segment decoder must never
// panic; a failed decode must return a typed ErrSegmentCorrupt; and a
// successful decode must be a logical fixpoint — re-encoding the decoded
// rows and decoding again yields identical rows. (Byte identity is only
// guaranteed for encoder-canonical inputs: DEFLATE admits more than one
// valid stream for the same payload.)
func FuzzSegmentDecode(f *testing.F) {
	// A few hundred rows make the main seed span multiple data blocks, so
	// it and its damaged copies exercise the block and dictionary
	// validators.
	valid := fuzzSeedSegment(300)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:segHeaderSize])
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0x80
	f.Add(mut)
	// Geometry edges: one row (zero-width dictionary codes, a one-row
	// block) and exactly one full block.
	f.Add(fuzzSeedSegment(1))
	f.Add(fuzzSeedSegment(segBlockRows))
	// Well-formed headers stamped with a version other than the one the
	// reader accepts, including the retired single-stream version 1.
	for _, v := range []uint16{1, 3} {
		f.Add(restampSegVersion(valid, v))
	}
	f.Add([]byte("CLSG"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeSegmentRows(data)
		if err != nil {
			if !errors.Is(err, ErrSegmentCorrupt) {
				t.Fatalf("decode error does not wrap ErrSegmentCorrupt: %v", err)
			}
			return
		}
		blob, _, err := encodeSegment(rows)
		if err != nil {
			t.Fatalf("decoded rows failed to re-encode: %v", err)
		}
		again, err := decodeSegmentRows(blob)
		if err != nil {
			t.Fatalf("re-encoded segment failed to decode: %v", err)
		}
		if !reflect.DeepEqual(rows, again) {
			t.Fatal("decode∘encode is not a fixpoint")
		}
	})
}
