package quicproto

import "crypto/sha256"

// The generic HKDF forms, for checking the Initial schedule against the
// RFC 9001 Appendix A vectors step by step. The opener runs the same
// hmacSHA256 over the prebuilt labelInfo messages.

// hkdfExtract implements HKDF-Extract (RFC 5869) over SHA-256.
func hkdfExtract(salt, ikm []byte) []byte {
	prk := hmacSHA256(nil, salt, ikm)
	return prk[:]
}

// hkdfExpandLabel implements HKDF-Expand-Label for outputs of at most one
// SHA-256 block, which covers every secret, key, IV and header-protection
// key of the QUIC Initial schedule.
func hkdfExpandLabel(secret []byte, label string, length int) []byte {
	if length > sha256.Size {
		panic("quicproto: HKDF-Expand-Label output longer than one block")
	}
	t := hmacSHA256(nil, secret, labelInfo(label, length))
	return t[:length]
}
