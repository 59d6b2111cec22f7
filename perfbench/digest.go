package main

// FNV-1a, 64-bit: the input-stream digest that the same seed must
// reproduce exactly.
const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func fnvAddUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}
