package prometheus

// Serializer computes the serialization set for an operation on a wrapped
// object (paper §2.1). It receives the wrapper's instance number and the
// object, and returns the set id. Serializers run in the program context at
// the delegation point and must be fast and pure.
//
// A serializer must map all operations on the same writable domain to the
// same set; mapping different domains to the same set is legal (and
// sometimes desirable, e.g. for locality) but reduces concurrency.
type Serializer[T any] func(instance uint64, obj *T) uint64

// SequenceSerializer serializes on the wrapper's instance number (the
// paper's sequence serializer). Instance numbers are small and consecutive,
// so sets spread evenly across delegates under the modulus policy.
func SequenceSerializer[T any]() Serializer[T] {
	return func(instance uint64, _ *T) uint64 { return instance }
}

// ObjectSerializer serializes on a scrambled object identity, the analogue
// of the paper's object (address) serializer: distinct objects map to
// well-spread, address-like set ids.
func ObjectSerializer[T any]() Serializer[T] {
	return func(instance uint64, _ *T) uint64 { return Mix64(instance) }
}

// Serializable is implemented by types that carry their own serialization
// identity (the paper's internal serializer written as a virtual method).
type Serializable interface {
	SerialID() uint64
}

// InternalSerializer serializes on the object's own SerialID method.
func InternalSerializer[T Serializable]() Serializer[T] {
	return func(_ uint64, obj *T) uint64 { return (*obj).SerialID() }
}

// NullSerializer marks a wrapper whose serialization sets are always
// supplied externally at the delegation site with DelegateTo (the paper's
// null serializer). Calling Delegate on such a wrapper is an error.
func NullSerializer[T any]() Serializer[T] { return nil }

// Mix64 is a SplitMix64 finalizer: a cheap bijective scrambler used to turn
// consecutive ids into address-like identities, and generally useful for
// hashing user keys into serialization sets.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StringSet hashes a string to a serialization set id (FNV-1a). Useful for
// external serializers keyed by names.
func StringSet(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
