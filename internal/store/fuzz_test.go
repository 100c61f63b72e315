package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// resealMetadata recomputes the checksums a mutation of the header or
// directory broke — the directory and statistics CRCs over the lengths the
// (possibly mutated) header declares, where they fit in img, then the header
// CRC — so the structural decoders behind them see the mutated values.
func resealMetadata(img []byte) {
	if len(img) < 8 {
		return
	}
	var hsize int
	switch binary.LittleEndian.Uint32(img[4:]) {
	case version:
		hsize = headerSize
	case version2:
		hsize = headerV2
	default:
		return
	}
	if len(img) < hsize {
		return
	}
	dirLen := int64(binary.LittleEndian.Uint32(img[16:]))
	if end := int64(hsize) + dirLen; end <= int64(len(img)) {
		binary.LittleEndian.PutUint32(img[20:], crc32.ChecksumIEEE(img[hsize:end]))
		if hsize == headerV2 {
			statsLen := int64(binary.LittleEndian.Uint32(img[24:]))
			if send := end + statsLen; send <= int64(len(img)) {
				binary.LittleEndian.PutUint32(img[28:], crc32.ChecksumIEEE(img[end:send]))
			}
		}
	}
	binary.LittleEndian.PutUint32(img[hsize-4:], crc32.ChecksumIEEE(img[:hsize-4]))
}

// memDeviceOf returns a MemDevice holding exactly img.
func memDeviceOf(tb testing.TB, img []byte) *MemDevice {
	tb.Helper()
	dev := NewMemDevice()
	if _, err := dev.WriteAt(img, 0); err != nil {
		tb.Fatal(err)
	}
	return dev
}

// FuzzReadDirectory mutates the header and directory of a small checkpoint,
// re-seals their checksums and decodes the directory: the decoder must
// either classify the input as ErrCorrupt or return entries whose regions
// all lie within the device — never panic, and never hand a reader a
// region larger than the device.
func FuzzReadDirectory(f *testing.F) {
	ix := buildIndex(f, 3, 300)
	src := NewMemDevice()
	if err := Save(ix, src); err != nil {
		f.Fatal(err)
	}
	size, _ := src.Size()
	base := make([]byte, size)
	if _, err := src.ReadAt(base, 0); err != nil {
		f.Fatal(err)
	}
	meta := headerV2 + int(binary.LittleEndian.Uint32(base[16:]))

	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	f.Add([]byte{}, uint16(0), int32(0))
	f.Add(le32(1<<30), uint16(headerV2+8), int32(0)) // cluster 0 claims a huge capacity
	f.Add(le32(0xFFFFFFF0), uint16(16), int32(0))    // directory longer than the device
	f.Add(le32(0xFFFFFFF0), uint16(24), int32(0))    // statistics longer than the device
	f.Add(le32(1<<28), uint16(8), int32(0))          // absurd dimensionality
	f.Add(le32(1), uint16(headerV2+12), int32(0))    // region offset inside the header
	f.Add([]byte{0xFF, 0xFF}, uint16(headerV2+40), int32(-64))
	f.Add(le32(1), uint16(4), int32(100)) // a version-1 header over v2 bytes
	f.Fuzz(func(t *testing.T, patch []byte, at uint16, grow int32) {
		img := append([]byte(nil), base...)
		if len(patch) > meta {
			patch = patch[:meta]
		}
		copy(img[int(at)%meta:], patch)
		switch g := int(grow) % (1 << 16); {
		case g < 0:
			img = img[:max(len(img)+g, 0)]
		case g > 0:
			img = append(img, make([]byte, g)...)
		}
		resealMetadata(img)
		entries, dims, err := ReadDirectory(memDeviceOf(t, img))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error not classified as ErrCorrupt: %v", err)
			}
			return
		}
		for i, e := range entries {
			if e.Count > e.Capacity || e.Offset < 0 || e.Offset+int64(e.RegionBytes(dims)) > int64(len(img)) {
				t.Fatalf("entry %d: %d of %d slots at %d (%d bytes) outside the %d-byte device",
					i, e.Count, e.Capacity, e.Offset, e.RegionBytes(dims), len(img))
			}
		}
	})
}
