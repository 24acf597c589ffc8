// Package quicproto implements the subset of QUIC v1 (RFC 9000/9001) needed
// to generate and analyze Initial packets: long-header encoding, the Initial
// secret schedule (HKDF over SHA-256), AES-128-GCM payload protection,
// AES-based header protection, CRYPTO-frame (re)assembly, and the transport
// parameter codec including the Google-specific parameters observed in
// YouTube traffic.
//
// Initial packets are encrypted with keys derived from public values (the
// destination connection ID), so an on-path observer — the ISP vantage point
// of the paper — can decrypt them and read the embedded TLS ClientHello.
package quicproto

import "crypto/sha256"

// hmacSHA256 computes HMAC-SHA256 (RFC 2104) of msg under key. The padded
// inner and outer blocks are built in scratch and hashed with
// sha256.Sum256, so a caller whose scratch has room for a block plus msg
// and a block plus a digest hashes without allocating.
//
//vp:hotpath
func hmacSHA256(scratch, key, msg []byte) [sha256.Size]byte {
	if len(key) > sha256.BlockSize {
		k := sha256.Sum256(key) //vp:allocok inlined: the digest stays on the stack, pinned by TestAssemblerZeroAlloc
		key = k[:]
	}
	b := appendKeyPad(scratch[:0], key, 0x36)
	b = append(b, msg...)
	inner := sha256.Sum256(b) //vp:allocok inlined: the digest stays on the stack, pinned by TestAssemblerZeroAlloc
	b = appendKeyPad(b[:0], key, 0x5c)
	b = append(b, inner[:]...)
	return sha256.Sum256(b) //vp:allocok inlined: the digest stays on the stack, pinned by TestAssemblerZeroAlloc
}

// appendKeyPad appends the HMAC key block, key zero-extended to one SHA-256
// block and XORed with pad.
//
//vp:hotpath
func appendKeyPad(b, key []byte, pad byte) []byte {
	for i := 0; i < sha256.BlockSize; i++ {
		k := byte(0)
		if i < len(key) {
			k = key[i]
		}
		b = append(b, k^pad)
	}
	return b
}

// labelInfo is the HMAC message of a one-block HKDF-Expand-Label (RFC 8446
// §7.1) with the "tls13 " prefix QUIC uses and an empty context: the
// HkdfLabel structure followed by HKDF-Expand's first block counter.
func labelInfo(label string, length int) []byte {
	full := "tls13 " + label
	info := make([]byte, 0, 5+len(full))
	info = append(info, byte(length>>8), byte(length))
	info = append(info, byte(len(full)))
	info = append(info, full...)
	info = append(info, 0) // empty context
	return append(info, 1) // T(1)
}
