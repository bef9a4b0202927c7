package sstable

import "encoding/binary"

// bloomHash is the hash LevelDB's bloom filter uses (a Murmur-like
// mixing of the key).
func bloomHash(key []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(key))*m
	for len(key) >= 4 {
		h += binary.LittleEndian.Uint32(key)
		h *= m
		h ^= h >> 16
		key = key[4:]
	}
	switch len(key) {
	case 3:
		h += uint32(key[2]) << 16
		fallthrough
	case 2:
		h += uint32(key[1]) << 8
		fallthrough
	case 1:
		h += uint32(key[0])
		h *= m
		h ^= h >> 24
	}
	return h
}

// appendBloom appends to dst a filter block of bitsPerKey bits per key
// over the keys whose bloomHash values are hashes. The last byte stores
// the probe count, so filters of any width read alike.
func appendBloom(dst []byte, hashes []uint32, bitsPerKey int) []byte {
	k := uint8(min(max(bitsPerKey*69/100, 1), 30)) // bitsPerKey * ln2
	bits := max(len(hashes)*bitsPerKey, 64)
	nbytes := (bits + 7) / 8
	bits = nbytes * 8
	dst = append(dst, make([]byte, nbytes+1)...)
	filter := dst[len(dst)-nbytes-1:]
	filter[nbytes] = k
	for _, h := range hashes {
		delta := h>>17 | h<<15
		for i := uint8(0); i < k; i++ {
			pos := h % uint32(bits)
			filter[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return dst
}

// bloomMayContain tests key against a filter produced by appendBloom.
// An empty or malformed filter conservatively returns true.
func bloomMayContain(filter, key []byte) bool {
	if len(filter) < 2 {
		return true
	}
	nbytes := len(filter) - 1
	bits := uint32(nbytes * 8)
	k := filter[nbytes]
	if k > 30 {
		return true // reserved for future encodings
	}
	h := bloomHash(key)
	delta := h>>17 | h<<15
	for i := uint8(0); i < k; i++ {
		pos := h % bits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
