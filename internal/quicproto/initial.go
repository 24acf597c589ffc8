package quicproto

import (
	"cmp"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"videoplat/internal/wire"
)

// Version1 is the QUIC version 1 field value.
const Version1 uint32 = 0x00000001

// initialSaltV1 is the version-1 Initial salt (RFC 9001 §5.2).
var initialSaltV1 = []byte{
	0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
	0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a,
}

// Errors returned by the Initial packet codec.
var (
	ErrNotLongHeader = errors.New("quicproto: not a long-header packet")
	ErrNotInitial    = errors.New("quicproto: not an Initial packet")
	ErrBadVersion    = errors.New("quicproto: unsupported version")
	ErrAuthFailure   = errors.New("quicproto: payload authentication failed")
	ErrMalformed     = errors.New("quicproto: malformed packet")
)

// malformedError is one detail of ErrMalformed. The details are constants,
// so rejecting a packet allocates nothing.
type malformedError string

func (e malformedError) Error() string { return ErrMalformed.Error() + ": " + string(e) }
func (e malformedError) Unwrap() error { return ErrMalformed }

// HKDF-Expand-Label messages of the client Initial schedule (RFC 9001
// §5.2), built once.
var (
	infoClientIn = labelInfo("client in", 32)
	infoQuicKey  = labelInfo("quic key", 16)
	infoQuicIV   = labelInfo("quic iv", 12)
	infoQuicHP   = labelInfo("quic hp", 16)
)

// maxFixedHeader is the header length the opener copies without
// allocating: the longest header without a token is 67 bytes, so this
// leaves room for any token short of a retry-sized one.
const maxFixedHeader = 256

// InitialOpener decrypts client Initial packets with reusable scratch. The
// key schedule, the header and the nonce live in fixed arrays, and the
// CRYPTO reassembly index keeps its capacity, so a warm opener allocates
// only the AES key schedules and GCM state the standard library builds for
// each packet's keys. The zero value is ready to use; not safe for
// concurrent use.
type InitialOpener struct {
	hmac   [2 * sha256.BlockSize]byte
	secret [sha256.Size]byte // the Initial secret, then the client secret
	key    [sha256.Size]byte // payload key in the first 16 bytes
	iv     [sha256.Size]byte // static IV in the first 12 bytes
	hpKey  [sha256.Size]byte // header-protection key in the first 16 bytes
	nonce  [12]byte
	mask   [aes.BlockSize]byte
	hdr    [maxFixedHeader]byte
	segs   []cryptoSeg
}

// clientKeys derives the client's Initial keys from the client's
// destination connection ID into o's arrays, and builds the payload and
// header-protection ciphers over them.
//
//vp:hotpath
func (o *InitialOpener) clientKeys(dcid []byte) (cipher.AEAD, cipher.Block, error) {
	o.secret = hmacSHA256(o.hmac[:], initialSaltV1, dcid) // HKDF-Extract
	o.secret = hmacSHA256(o.hmac[:], o.secret[:], infoClientIn)
	o.key = hmacSHA256(o.hmac[:], o.secret[:], infoQuicKey)
	o.iv = hmacSHA256(o.hmac[:], o.secret[:], infoQuicIV)
	o.hpKey = hmacSHA256(o.hmac[:], o.secret[:], infoQuicHP)

	block, err := aes.NewCipher(o.key[:16]) //vp:allocok AES key schedule per packet key; the standard library cannot re-key a cipher
	if err != nil {
		return nil, nil, err
	}
	aead, err := cipher.NewGCM(block) //vp:allocok GCM state per packet key; the standard library cannot re-key it
	if err != nil {
		return nil, nil, err
	}
	hp, err := aes.NewCipher(o.hpKey[:16]) //vp:allocok AES key schedule per header-protection key; no re-key API
	if err != nil {
		return nil, nil, err
	}
	return aead, hp, nil
}

// setNonce XORs the packet number into the static IV (RFC 9001 §5.3).
func (o *InitialOpener) setNonce(pn uint64) {
	copy(o.nonce[:], o.iv[:len(o.nonce)])
	for i := 0; i < 8; i++ {
		o.nonce[len(o.nonce)-1-i] ^= byte(pn >> (8 * i))
	}
}

// Initial is a decoded (or to-be-encoded) QUIC Initial packet.
type Initial struct {
	Version      uint32
	DCID, SCID   []byte
	Token        []byte
	PacketNumber uint64
	CryptoData   []byte // reassembled CRYPTO stream carried by this packet

	// CryptoOffset is the stream offset of CryptoData: 0 when the packet
	// carries the start of the ClientHello (the common single-Initial
	// case), nonzero when it carries a later fragment of a hello split
	// across Initials — e.g. a client that migrated mid-handshake. On
	// encode, Seal emits the CRYPTO frame at this offset.
	CryptoOffset uint64

	// WireSize is the size of the UDP payload this packet was parsed from
	// or encoded to — the paper's init_packet_size attribute.
	WireSize int
}

// maxCryptoLen bounds the reassembled CRYPTO stream of one packet. CRYPTO
// offset and length ride attacker-controlled varints (up to 2^62-1), so
// without a cap a single forged Initial could demand an arbitrarily large
// reassembly buffer. Real first-flight hellos are well under 16 KB; 256 KB
// leaves room for any conceivable hello while keeping the worst-case
// allocation trivial.
const maxCryptoLen = 1 << 18

// frame type codes handled in Initial packets.
const (
	framePadding = 0x00
	framePing    = 0x01
	frameACK     = 0x02
	frameCrypto  = 0x06
)

// ParseInitial decrypts and decodes a client Initial packet from a UDP
// datagram. Coalesced packets after the Initial are ignored. The CRYPTO
// stream is reassembled in offset order.
func ParseInitial(datagram []byte) (*Initial, error) {
	var o InitialOpener
	var buf []byte
	p := new(Initial)
	if err := o.ParseInto(p, datagram, &buf); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto is ParseInitial into caller-owned storage. Every field of p is
// overwritten. The decrypted payload goes into *buf, reusing its capacity,
// and p.CryptoData aliases *buf: in place when the packet carries one
// CRYPTO frame, else as a reassembled run appended after the payload.
// p.DCID, p.SCID and p.Token alias datagram. The result is identical to a
// fresh ParseInitial whatever p and *buf held before.
//
//vp:hotpath
func (o *InitialOpener) ParseInto(p *Initial, datagram []byte, buf *[]byte) error {
	r := wire.NewReader(datagram)
	first, err := r.Uint8()
	if err != nil {
		return malformedError("empty datagram")
	}
	if first&0x80 == 0 {
		return ErrNotLongHeader
	}
	if (first>>4)&0x03 != 0 { // long packet type: Initial = 0
		return ErrNotInitial
	}
	version, err := r.Uint32()
	if err != nil {
		return malformedError("version")
	}
	if version != Version1 {
		return ErrBadVersion
	}
	*p = Initial{Version: version}

	dcidLen, err := r.Uint8()
	if err != nil || dcidLen > 20 {
		return malformedError("dcid length")
	}
	if p.DCID, err = r.Bytes(int(dcidLen)); err != nil {
		return malformedError("dcid")
	}
	scidLen, err := r.Uint8()
	if err != nil || scidLen > 20 {
		return malformedError("scid length")
	}
	if p.SCID, err = r.Bytes(int(scidLen)); err != nil {
		return malformedError("scid")
	}
	tokenLen, err := r.Varint()
	if err != nil {
		return malformedError("token length")
	}
	if p.Token, err = r.Bytes(int(tokenLen)); err != nil {
		return malformedError("token")
	}
	length, err := r.Varint()
	if err != nil {
		return malformedError("length")
	}
	pnOffset := r.Offset()
	if int(length) > r.Len() || length < 20 {
		return malformedError("packet length")
	}
	// Remove header protection: sample starts 4 bytes past the start of the
	// packet number field.
	if pnOffset+4+16 > len(datagram) {
		return malformedError("too short for hp sample")
	}

	aead, hp, err := o.clientKeys(p.DCID)
	if err != nil {
		return err
	}
	hp.Encrypt(o.mask[:], datagram[pnOffset+4:pnOffset+4+16])
	firstUnmasked := first ^ (o.mask[0] & 0x0f)
	pnLen := int(firstUnmasked&0x03) + 1
	hdr := o.hdr[:0]
	hdr = append(hdr, datagram[:pnOffset]...) // allocates only past maxFixedHeader
	hdr[0] = firstUnmasked
	var pn uint64
	for i := 0; i < pnLen; i++ {
		b := datagram[pnOffset+i] ^ o.mask[1+i]
		hdr = append(hdr, b)
		pn = pn<<8 | uint64(b)
	}
	p.PacketNumber = pn
	o.setNonce(pn)

	ciphertext := datagram[pnOffset+pnLen : pnOffset+int(length)]
	plaintext, err := aead.Open((*buf)[:0], o.nonce[:], ciphertext, hdr)
	if err != nil {
		return ErrAuthFailure
	}
	*buf = plaintext
	if err := o.assembleCrypto(p, buf); err != nil {
		return err
	}
	p.WireSize = len(datagram)
	return nil
}

// cryptoSeg is one CRYPTO frame of a decrypted payload: its stream offset
// and where its bytes sit in the payload.
type cryptoSeg struct {
	off      uint64
	from, to int
}

func cmpSegOff(a, b cryptoSeg) int { return cmp.Compare(a.off, b.off) }

// assembleCrypto walks the frame sequence in *buf and reassembles the
// CRYPTO data this packet carries into one contiguous run. The run need not
// start at stream offset 0 — a hello split across Initials puts later
// fragments at nonzero offsets — so the result is (CryptoOffset,
// CryptoData). A single CRYPTO frame is the run and is read in place;
// several are copied into a run appended to *buf. Gaps *within* one
// packet's segments remain malformed (no real stack fragments its own
// flight), and the total reassembly is bounded by maxCryptoLen so forged
// offset varints cannot demand huge buffers.
//
//vp:hotpath
func (o *InitialOpener) assembleCrypto(p *Initial, buf *[]byte) error {
	frames := *buf
	segs := o.segs[:0]
	minOff := uint64(1<<63 - 1)
	var maxEnd uint64
	r := wire.NewReader(frames)
	for !r.Empty() {
		ft, err := r.Varint()
		if err != nil {
			return malformedError("frame type")
		}
		switch {
		case ft == framePadding:
			// A client pads its Initial to 1,200 bytes, so the frames
			// usually end in a long run of PADDING: each 0x00 byte is one
			// frame, and the whole run is skipped in a single scan.
			end := r.Offset()
			for end < len(frames) && frames[end] == framePadding {
				end++
			}
			_ = r.Skip(end - r.Offset()) // in bounds: end <= len(frames)
		case ft == framePing:
			// no body
		case ft == frameACK || ft == frameACK+1:
			if err := skipACK(r, ft); err != nil {
				return err
			}
		case ft == frameCrypto:
			off, err := r.Varint()
			if err != nil {
				return malformedError("crypto offset")
			}
			n, err := r.Varint()
			if err != nil {
				return malformedError("crypto length")
			}
			if off > maxCryptoLen || n > maxCryptoLen || off+n > maxCryptoLen {
				return malformedError("crypto stream over 256 KiB")
			}
			from := r.Offset()
			if err := r.Skip(int(n)); err != nil {
				return malformedError("crypto data")
			}
			segs = append(segs, cryptoSeg{off: off, from: from, to: from + int(n)})
			if off < minOff {
				minOff = off
			}
			if off+n > maxEnd {
				maxEnd = off + n
			}
		default:
			return malformedError("unexpected frame type in Initial")
		}
	}
	o.segs = segs
	if maxEnd == 0 {
		return nil
	}
	if len(segs) == 1 {
		p.CryptoOffset = minOff
		p.CryptoData = frames[segs[0].from:segs[0].to]
		return nil
	}
	// Copy in arrival order, so a later overlapping segment wins, then
	// check coverage in offset order.
	n, span := len(frames), int(maxEnd-minOff)
	out := frames
	if cap(out) < n+span {
		out = make([]byte, n, n+span) //vp:allocok grows *buf once; it keeps the capacity
		copy(out, frames)
	}
	out = out[:n+span]
	for _, s := range segs {
		copy(out[n+int(s.off-minOff):], out[s.from:s.to])
	}
	slices.SortFunc(segs, cmpSegOff) //vp:allocok generic type parameter, not an interface: nothing is boxed
	covered := minOff
	for _, s := range segs {
		if s.off > covered {
			return malformedError("crypto stream has gaps")
		}
		covered = max(covered, s.off+uint64(s.to-s.from))
	}
	*buf = out
	p.CryptoOffset = minOff
	p.CryptoData = out[n:]
	return nil
}

func skipACK(r *wire.Reader, ft uint64) error {
	// largest acked, ack delay (RFC 9000 §19.3)
	for i := 0; i < 2; i++ {
		if _, err := r.Varint(); err != nil {
			return malformedError("ack")
		}
	}
	count, err := r.Varint()
	if err != nil {
		return malformedError("ack range count")
	}
	if _, err := r.Varint(); err != nil { // first ack range
		return malformedError("ack first range")
	}
	for i := uint64(0); i < count; i++ { // gap + range length pairs
		for j := 0; j < 2; j++ {
			if _, err := r.Varint(); err != nil {
				return malformedError("ack range")
			}
		}
	}
	if ft == frameACK+1 { // ACK_ECN: ECT0, ECT1, CE counts
		for j := 0; j < 3; j++ {
			if _, err := r.Varint(); err != nil {
				return malformedError("ack ecn counts")
			}
		}
	}
	return nil
}

// MinInitialSize is the minimum UDP payload size for client Initials
// (RFC 9000 §14.1).
const MinInitialSize = 1200

// Seal encodes and encrypts the Initial into a UDP datagram. CryptoData is
// carried in a single CRYPTO frame at CryptoOffset (0 for a complete hello),
// padded with PADDING frames to at least minSize (use 0 for the RFC default
// of 1200).
func (p *Initial) Seal(minSize int) ([]byte, error) {
	if minSize == 0 {
		minSize = MinInitialSize
	}
	// Plaintext frames: CRYPTO(offset=CryptoOffset) + padding.
	frames := wire.NewWriter(len(p.CryptoData) + 64)
	frames.Uint8(frameCrypto)
	if err := frames.Varint(p.CryptoOffset); err != nil {
		return nil, err
	}
	if err := frames.Varint(uint64(len(p.CryptoData))); err != nil {
		return nil, err
	}
	frames.Write(p.CryptoData)
	return p.sealFrames(frames.Bytes(), minSize)
}

// sealFrames is Seal over an encoded plaintext frame sequence: it pads the
// frames to minSize, then encrypts and header-protects the packet.
func (p *Initial) sealFrames(frames []byte, minSize int) ([]byte, error) {
	if len(p.DCID) > 20 || len(p.SCID) > 20 {
		return nil, fmt.Errorf("%w: connection id too long", ErrMalformed)
	}
	const pnLen = 4 // fixed-length packet number keeps the header math simple

	// Compute header size to find how much padding reaches minSize.
	hdrLen := func(payloadLen int) int {
		n := 1 + 4 + 1 + len(p.DCID) + 1 + len(p.SCID)
		n += wire.VarintLen(uint64(len(p.Token))) + len(p.Token)
		n += wire.VarintLen(uint64(pnLen + payloadLen + 16)) // length field
		return n
	}
	plainLen := len(frames)
	total := hdrLen(plainLen) + pnLen + plainLen + 16
	if total < minSize {
		pad := minSize - total
		frames = append(frames[:plainLen:plainLen], make([]byte, pad)...)
		plainLen += pad
	}

	// Header.
	hdr := wire.NewWriter(64)
	first := byte(0xc0 | (pnLen - 1)) // long header, fixed bit, Initial, pn len
	hdr.Uint8(first)
	hdr.Uint32(p.Version)
	hdr.Uint8(uint8(len(p.DCID)))
	hdr.Write(p.DCID)
	hdr.Uint8(uint8(len(p.SCID)))
	hdr.Write(p.SCID)
	if err := hdr.Varint(uint64(len(p.Token))); err != nil {
		return nil, err
	}
	hdr.Write(p.Token)
	if err := hdr.Varint(uint64(pnLen + plainLen + 16)); err != nil {
		return nil, err
	}
	pnOffset := hdr.Len()
	for i := pnLen - 1; i >= 0; i-- {
		hdr.Uint8(byte(p.PacketNumber >> (8 * i)))
	}

	var o InitialOpener
	aead, hp, err := o.clientKeys(p.DCID)
	if err != nil {
		return nil, err
	}
	o.setNonce(p.PacketNumber)
	ciphertext := aead.Seal(nil, o.nonce[:], frames, hdr.Bytes())

	out := append(append([]byte{}, hdr.Bytes()...), ciphertext...)

	// Apply header protection.
	hp.Encrypt(o.mask[:], out[pnOffset+4:pnOffset+4+16])
	out[0] ^= o.mask[0] & 0x0f
	for i := 0; i < pnLen; i++ {
		out[pnOffset+i] ^= o.mask[1+i]
	}
	p.WireSize = len(out)
	return out, nil
}

// IsLongHeader reports whether a UDP payload starts with a QUIC long header.
func IsLongHeader(b []byte) bool { return len(b) > 0 && b[0]&0x80 != 0 }

// Long packet types (RFC 9000 §17.2), as returned by LongHeaderType.
const (
	TypeInitial   uint8 = 0
	Type0RTT      uint8 = 1
	TypeHandshake uint8 = 2
	TypeRetry     uint8 = 3
)

// LongHeaderType returns a long-header packet's type bits. Valid only when
// IsLongHeader(b); the type bits are not covered by header protection, so
// they read true off the wire.
func LongHeaderType(b []byte) uint8 { return (b[0] >> 4) & 0x03 }

// LongHeaderCIDs is the plaintext prefix every long-header packet exposes
// before any cryptography: its type, version and both connection IDs. This
// is all an on-path observer can read from 0-RTT or Handshake packets — and
// exactly what a flow tracker needs to follow a connection across a
// migration, since the IDs survive the 5-tuple change.
type LongHeaderCIDs struct {
	Type       uint8
	Version    uint32
	DCID, SCID []byte
}

// ParseLongHeaderCIDs decodes the plaintext connection-ID prefix of any
// long-header packet (Initial, 0-RTT, Handshake, Retry) without touching
// packet protection. The returned DCID/SCID alias datagram; copy them to
// retain past the buffer's lifetime. Allocation-free.
func ParseLongHeaderCIDs(datagram []byte) (LongHeaderCIDs, error) {
	var out LongHeaderCIDs
	if len(datagram) < 7 {
		return out, fmt.Errorf("%w: short long header", ErrMalformed)
	}
	first := datagram[0]
	if first&0x80 == 0 {
		return out, ErrNotLongHeader
	}
	out.Type = (first >> 4) & 0x03
	out.Version = uint32(datagram[1])<<24 | uint32(datagram[2])<<16 |
		uint32(datagram[3])<<8 | uint32(datagram[4])
	i := 5
	dcidLen := int(datagram[i])
	i++
	if dcidLen > 20 || i+dcidLen >= len(datagram) {
		return out, fmt.Errorf("%w: dcid length", ErrMalformed)
	}
	out.DCID = datagram[i : i+dcidLen]
	i += dcidLen
	scidLen := int(datagram[i])
	i++
	if scidLen > 20 || i+scidLen > len(datagram) {
		return out, fmt.Errorf("%w: scid length", ErrMalformed)
	}
	out.SCID = datagram[i : i+scidLen]
	return out, nil
}
