// Package tlsproto parses and builds TLS ClientHello messages, covering
// every handshake field the paper's Table 2 formalizes into classification
// attributes: the mandatory fields (version, cipher suites, compression
// methods), the 23 optional extensions, and the QUIC transport-parameter
// extension carried inside QUIC Initial CRYPTO frames.
//
// The package works on both directions: Parse decodes wire bytes captured
// from a network (tolerating GREASE and unknown extensions), and Marshal
// produces wire bytes for the synthetic trace generator.
package tlsproto

import (
	"errors"

	"videoplat/internal/wire"
)

// TLS extension type codes (IANA "TLS ExtensionType Values").
const (
	ExtServerName           uint16 = 0
	ExtStatusRequest        uint16 = 5
	ExtSupportedGroups      uint16 = 10
	ExtECPointFormats       uint16 = 11
	ExtSignatureAlgorithms  uint16 = 13
	ExtALPN                 uint16 = 16
	ExtSCT                  uint16 = 18
	ExtPadding              uint16 = 21
	ExtEncryptThenMac       uint16 = 22
	ExtExtendedMasterSecret uint16 = 23
	ExtCompressCertificate  uint16 = 27
	ExtRecordSizeLimit      uint16 = 28
	ExtDelegatedCredentials uint16 = 34
	ExtSessionTicket        uint16 = 35
	ExtPreSharedKey         uint16 = 41
	ExtEarlyData            uint16 = 42
	ExtSupportedVersions    uint16 = 43
	ExtPSKKeyExchangeModes  uint16 = 45
	ExtPostHandshakeAuth    uint16 = 49
	ExtKeyShare             uint16 = 51
	ExtQUICTransportParams  uint16 = 57
	ExtApplicationSettings  uint16 = 17513 // ALPS (draft-vvv-tls-alps)
	ExtRenegotiationInfo    uint16 = 65281
	// ExtEncryptedClientHello is the ECH extension (draft-ietf-tls-esni).
	// When present, the visible server_name is a fronting public name and
	// the real inner hello — SNI included — rides encrypted in its payload,
	// opaque to an on-path observer.
	ExtEncryptedClientHello uint16 = 0xfe0d
)

// TLS protocol version codes.
const (
	VersionTLS10 uint16 = 0x0301
	VersionTLS11 uint16 = 0x0302
	VersionTLS12 uint16 = 0x0303
	VersionTLS13 uint16 = 0x0304
)

// Record and handshake framing constants.
const (
	recordTypeHandshake  = 22
	handshakeClientHello = 1
)

// Errors returned by the parser.
var (
	ErrNotHandshake   = errors.New("tlsproto: not a handshake record")
	ErrNotClientHello = errors.New("tlsproto: not a ClientHello")
	ErrMalformed      = errors.New("tlsproto: malformed ClientHello")
)

// Extension is one raw TLS extension in wire order.
type Extension struct {
	Type uint16
	Data []byte
}

// ClientHello is a decoded (or to-be-encoded) ClientHello message.
// Extensions preserves the client's wire order, which is itself a
// fingerprinting signal.
type ClientHello struct {
	LegacyVersion      uint16
	Random             [32]byte
	SessionID          []byte
	CipherSuites       []uint16
	CompressionMethods []byte
	Extensions         []Extension

	// HandshakeLength and ExtensionsLength are the lengths observed on the
	// wire when parsed (attributes m1 and m5 of the paper); Marshal fills
	// them in for generated hellos.
	HandshakeLength  int
	ExtensionsLength int
}

// Extension returns the first extension of the given type and whether it is
// present.
func (ch *ClientHello) Extension(typ uint16) (Extension, bool) {
	for _, e := range ch.Extensions {
		if e.Type == typ {
			return e, true
		}
	}
	return Extension{}, false
}

// HasExtension reports whether an extension type is present.
func (ch *ClientHello) HasExtension(typ uint16) bool {
	_, ok := ch.Extension(typ)
	return ok
}

// ExtensionTypes returns the extension type codes in wire order.
func (ch *ClientHello) ExtensionTypes() []uint16 {
	types := make([]uint16, len(ch.Extensions))
	for i, e := range ch.Extensions {
		types[i] = e.Type
	}
	return types
}

// ServerName returns the host_name entry of the server_name extension.
func (ch *ClientHello) ServerName() string {
	e, ok := ch.Extension(ExtServerName)
	if !ok {
		return ""
	}
	r := wire.NewReader(e.Data)
	listLen, err := r.Uint16()
	if err != nil || int(listLen) > r.Len() {
		return ""
	}
	for r.Len() > 0 {
		nameType, err := r.Uint8()
		if err != nil {
			return ""
		}
		nameLen, err := r.Uint16()
		if err != nil {
			return ""
		}
		name, err := r.Bytes(int(nameLen))
		if err != nil {
			return ""
		}
		if nameType == 0 {
			return string(name)
		}
	}
	return ""
}

// SupportedGroups returns the named-group list, or nil if absent.
func (ch *ClientHello) SupportedGroups() []uint16 {
	return ch.uint16List(ExtSupportedGroups)
}

// SignatureAlgorithms returns the signature-scheme list, or nil if absent.
func (ch *ClientHello) SignatureAlgorithms() []uint16 {
	return ch.uint16List(ExtSignatureAlgorithms)
}

// DelegatedCredentials returns the delegated-credential scheme list.
func (ch *ClientHello) DelegatedCredentials() []uint16 {
	return ch.uint16List(ExtDelegatedCredentials)
}

func (ch *ClientHello) uint16List(typ uint16) []uint16 {
	return ch.AppendUint16List(typ, nil)
}

// ECPointFormats returns the point-format list, or nil if absent.
func (ch *ClientHello) ECPointFormats() []byte {
	return ch.U8PrefixedBytes(ExtECPointFormats)
}

// ALPNProtocols returns the ALPN protocol names in preference order.
func (ch *ClientHello) ALPNProtocols() []string {
	return alpnList(ch, ExtALPN)
}

// ApplicationSettings returns the ALPS-supported ALPN list.
func (ch *ClientHello) ApplicationSettings() []string {
	return alpnList(ch, ExtApplicationSettings)
}

func alpnList(ch *ClientHello, typ uint16) []string {
	var out []string
	for _, name := range ch.AppendALPN(typ, nil) {
		out = append(out, string(name))
	}
	return out
}

// SupportedVersions returns the offered TLS versions.
func (ch *ClientHello) SupportedVersions() []uint16 {
	return ch.AppendSupportedVersions(nil)
}

// PSKKeyExchangeModes returns the psk_key_exchange_modes list.
func (ch *ClientHello) PSKKeyExchangeModes() []byte {
	return ch.U8PrefixedBytes(ExtPSKKeyExchangeModes)
}

// KeyShareGroups returns the named groups for which key shares are offered.
func (ch *ClientHello) KeyShareGroups() []uint16 {
	return ch.AppendKeyShareGroups(nil)
}

// CompressCertificateAlgorithms returns the certificate-compression
// algorithm list (e.g. 1=zlib, 2=brotli, 3=zstd).
func (ch *ClientHello) CompressCertificateAlgorithms() []uint16 {
	return ch.AppendCompressCertAlgorithms(nil)
}

// RecordSizeLimit returns the record_size_limit value, or 0 if absent.
func (ch *ClientHello) RecordSizeLimit() uint16 {
	e, ok := ch.Extension(ExtRecordSizeLimit)
	if !ok || len(e.Data) != 2 {
		return 0
	}
	return uint16(e.Data[0])<<8 | uint16(e.Data[1])
}

// StatusRequestType returns the status_request type (1 = OCSP) or 0 if the
// extension is absent/empty.
func (ch *ClientHello) StatusRequestType() uint8 {
	e, ok := ch.Extension(ExtStatusRequest)
	if !ok || len(e.Data) == 0 {
		return 0
	}
	return e.Data[0]
}

// ExtensionLen returns the wire length in bytes of the body of an extension,
// or -1 if absent. Used for the length-typed attributes of Table 2
// (session_ticket, early_data, padding, SCT, server_name...).
func (ch *ClientHello) ExtensionLen(typ uint16) int {
	e, ok := ch.Extension(typ)
	if !ok {
		return -1
	}
	return len(e.Data)
}

// malformedError is one detail of ErrMalformed. The details are constants,
// so rejecting a hello allocates nothing: a hello split across TCP segments
// or QUIC Initials is re-parsed, and rejected as truncated, on every piece
// until it completes.
type malformedError string

func (e malformedError) Error() string { return ErrMalformed.Error() + ": " + string(e) }
func (e malformedError) Unwrap() error { return ErrMalformed }

// Parse decodes a ClientHello handshake message (starting at the handshake
// header, i.e. after any TLS record framing). Returned slices alias msg.
func Parse(msg []byte) (*ClientHello, error) {
	ch := new(ClientHello)
	if err := ParseInto(ch, msg); err != nil {
		return nil, err
	}
	return ch, nil
}

// ParseInto is Parse into a caller-owned ClientHello. Every field is
// overwritten; the capacity of ch.CipherSuites and ch.Extensions is reused,
// so parsing into a warm ClientHello allocates nothing. The other slices
// alias msg. Empty lists come back nil, which makes the result identical to
// a fresh Parse of msg whatever ch held before. On error ch holds no
// meaningful hello.
//
//vp:hotpath
func ParseInto(ch *ClientHello, msg []byte) error {
	r := wire.NewReader(msg)
	typ, err := r.Uint8()
	if err != nil {
		return malformedError("empty handshake")
	}
	if typ != handshakeClientHello {
		return ErrNotClientHello
	}
	bodyLen, err := r.Uint24()
	if err != nil {
		return malformedError("handshake length")
	}
	if int(bodyLen) > r.Len() {
		return malformedError("handshake body truncated")
	}
	body, _ := r.Bytes(int(bodyLen))
	*ch = ClientHello{
		HandshakeLength: int(bodyLen),
		CipherSuites:    ch.CipherSuites[:0],
		Extensions:      ch.Extensions[:0],
	}
	br := wire.NewReader(body)

	if ch.LegacyVersion, err = br.Uint16(); err != nil {
		return malformedError("version")
	}
	random, err := br.Bytes(32)
	if err != nil {
		return malformedError("random")
	}
	copy(ch.Random[:], random)

	sidLen, err := br.Uint8()
	if err != nil {
		return malformedError("session id length")
	}
	if ch.SessionID, err = br.Bytes(int(sidLen)); err != nil {
		return malformedError("session id")
	}

	csLen, err := br.Uint16()
	if err != nil || csLen%2 != 0 || int(csLen) > br.Len() {
		return malformedError("cipher suite length")
	}
	if n := int(csLen) / 2; cap(ch.CipherSuites) < n {
		ch.CipherSuites = make([]uint16, 0, n) //vp:allocok sized once per ClientHello; a reused one keeps the capacity
	}
	for i := 0; i < int(csLen)/2; i++ {
		cs, _ := br.Uint16() // csLen was checked against the body
		ch.CipherSuites = append(ch.CipherSuites, cs)
	}
	if len(ch.CipherSuites) == 0 {
		ch.CipherSuites = nil
	}

	cmLen, err := br.Uint8()
	if err != nil {
		return malformedError("compression length")
	}
	if ch.CompressionMethods, err = br.Bytes(int(cmLen)); err != nil {
		return malformedError("compression methods")
	}

	if br.Empty() {
		ch.Extensions = nil // extensions are optional in TLS <= 1.2
		return nil
	}
	extLen, err := br.Uint16()
	if err != nil || int(extLen) > br.Len() {
		return malformedError("extensions length")
	}
	ch.ExtensionsLength = int(extLen)
	block, _ := br.Bytes(int(extLen))
	if n := countExtensions(block); cap(ch.Extensions) < n {
		ch.Extensions = make([]Extension, 0, n) //vp:allocok sized once per ClientHello; a reused one keeps the capacity
	}
	er := wire.NewReader(block)
	for !er.Empty() {
		typ, err := er.Uint16()
		if err != nil {
			return malformedError("extension type")
		}
		dataLen, err := er.Uint16()
		if err != nil {
			return malformedError("extension length")
		}
		data, err := er.Bytes(int(dataLen))
		if err != nil {
			return malformedError("extension body")
		}
		ch.Extensions = append(ch.Extensions, Extension{Type: typ, Data: data})
	}
	if len(ch.Extensions) == 0 {
		ch.Extensions = nil
	}
	return nil
}

// countExtensions counts the extension headers in an extensions block, so
// a fresh ClientHello sizes its extension list once. Malformed trailing
// bytes end the count; ParseInto reports them.
//
//vp:hotpath
func countExtensions(block []byte) int {
	n := 0
	for len(block) >= 4 {
		l := 4 + (int(block[2])<<8 | int(block[3]))
		if l > len(block) {
			break
		}
		block = block[l:]
		n++
	}
	return n
}

// ParseRecord decodes a ClientHello wrapped in a TLS record, as found at the
// start of a TCP connection's client byte stream. Multi-record hellos
// (records split across the 16 KB boundary) are reassembled.
func ParseRecord(stream []byte) (*ClientHello, error) {
	var frag []byte
	ch := new(ClientHello)
	if err := ParseRecordInto(ch, stream, &frag); err != nil {
		return nil, err
	}
	return ch, nil
}

// ParseRecordInto is ParseRecord into a caller-owned ClientHello (see
// ParseInto). A hello inside its first record is parsed in place and
// aliases stream. A hello spanning records is reassembled into *frag,
// reusing its capacity, and aliases *frag.
//
//vp:hotpath
func ParseRecordInto(ch *ClientHello, stream []byte, frag *[]byte) error {
	var handshake []byte
	r := wire.NewReader(stream)
	for records := 0; ; records++ {
		typ, err := r.Uint8()
		if err != nil {
			return malformedError("record header")
		}
		if typ != recordTypeHandshake {
			return ErrNotHandshake
		}
		if err := r.Skip(2); err != nil { // legacy record version
			return malformedError("record version")
		}
		recLen, err := r.Uint16()
		if err != nil {
			return malformedError("record length")
		}
		body, err := r.Bytes(int(recLen))
		if err != nil {
			return malformedError("record body truncated")
		}
		switch records {
		case 0:
			handshake = body
		case 1:
			*frag = append((*frag)[:0], handshake...)
			fallthrough
		default:
			*frag = append(*frag, body...)
			handshake = *frag
		}
		if len(handshake) >= 4 {
			want := 4 + int(uint32(handshake[1])<<16|uint32(handshake[2])<<8|uint32(handshake[3]))
			if len(handshake) >= want {
				return ParseInto(ch, handshake[:want])
			}
		}
		if r.Empty() {
			return malformedError("handshake spans more records than captured")
		}
	}
}

// Marshal encodes the ClientHello as a handshake message (handshake header
// included, no record framing) and updates HandshakeLength and
// ExtensionsLength to the encoded sizes.
func (ch *ClientHello) Marshal() []byte {
	body := wire.NewWriter(512)
	body.Uint16(ch.LegacyVersion)
	body.Write(ch.Random[:])
	body.Uint8(uint8(len(ch.SessionID)))
	body.Write(ch.SessionID)
	body.Uint16(uint16(2 * len(ch.CipherSuites)))
	for _, cs := range ch.CipherSuites {
		body.Uint16(cs)
	}
	body.Uint8(uint8(len(ch.CompressionMethods)))
	body.Write(ch.CompressionMethods)

	exts := wire.NewWriter(256)
	for _, e := range ch.Extensions {
		exts.Uint16(e.Type)
		exts.Uint16(uint16(len(e.Data)))
		exts.Write(e.Data)
	}
	if len(ch.Extensions) > 0 {
		body.Uint16(uint16(exts.Len()))
		body.Write(exts.Bytes())
	}
	ch.ExtensionsLength = exts.Len()
	ch.HandshakeLength = body.Len()

	out := wire.NewWriter(4 + body.Len())
	out.Uint8(handshakeClientHello)
	out.Uint24(uint32(body.Len()))
	out.Write(body.Bytes())
	return out.Bytes()
}

// MarshalRecord encodes the ClientHello wrapped in a single TLS record with
// the legacy record version 0x0301, as real clients emit.
func (ch *ClientHello) MarshalRecord() []byte {
	hs := ch.Marshal()
	out := wire.NewWriter(5 + len(hs))
	out.Uint8(recordTypeHandshake)
	out.Uint16(VersionTLS10)
	out.Uint16(uint16(len(hs)))
	out.Write(hs)
	return out.Bytes()
}
