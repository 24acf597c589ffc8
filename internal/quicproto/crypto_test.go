package quicproto

import (
	"bytes"
	"testing"

	"videoplat/internal/wire"
)

// assemble runs assembleCrypto over a decrypted frame sequence.
func assemble(p *Initial, frames []byte) error {
	var o InitialOpener
	return o.assembleCrypto(p, &frames)
}

// cryptoFrame encodes one CRYPTO frame for assembleCrypto tests.
func cryptoFrame(off uint64, data []byte) []byte {
	w := wire.NewWriter(16 + len(data))
	w.Uint8(frameCrypto)
	_ = w.Varint(off)
	_ = w.Varint(uint64(len(data)))
	w.Write(data)
	return w.Bytes()
}

func TestAssembleCryptoOutOfOrderSegments(t *testing.T) {
	want := []byte("0123456789abcdef")
	var frames []byte
	frames = append(frames, cryptoFrame(8, want[8:])...)
	frames = append(frames, 0x01) // PING between segments
	frames = append(frames, cryptoFrame(0, want[:8])...)
	frames = append(frames, 0x00, 0x00) // trailing PADDING

	p := &Initial{}
	if err := assemble(p, frames); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.CryptoData, want) {
		t.Errorf("crypto = %q, want %q", p.CryptoData, want)
	}
}

func TestAssembleCryptoOverlappingSegments(t *testing.T) {
	want := []byte("hello quic world")
	var frames []byte
	frames = append(frames, cryptoFrame(0, want[:10])...)
	frames = append(frames, cryptoFrame(6, want[6:])...) // overlaps 6..10

	p := &Initial{}
	if err := assemble(p, frames); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.CryptoData, want) {
		t.Errorf("crypto = %q, want %q", p.CryptoData, want)
	}
}

func TestAssembleCryptoGapDetected(t *testing.T) {
	var frames []byte
	frames = append(frames, cryptoFrame(0, []byte("abc"))...)
	frames = append(frames, cryptoFrame(10, []byte("xyz"))...) // hole 3..10

	p := &Initial{}
	if err := assemble(p, frames); err == nil {
		t.Error("gap not detected")
	}
}

func TestAssembleCryptoSkipsACK(t *testing.T) {
	// ACK frame: type 0x02, largest=5, delay=0, range count=0, first range=2.
	ack := []byte{0x02, 0x05, 0x00, 0x00, 0x02}
	frames := append(append([]byte{}, ack...), cryptoFrame(0, []byte("ch"))...)
	p := &Initial{}
	if err := assemble(p, frames); err != nil {
		t.Fatal(err)
	}
	if string(p.CryptoData) != "ch" {
		t.Errorf("crypto = %q", p.CryptoData)
	}
}

func TestAssembleCryptoRejectsUnexpectedFrame(t *testing.T) {
	// STREAM frames (0x08+) are not allowed in Initial packets.
	p := &Initial{}
	if err := assemble(p, []byte{0x08, 0x00}); err == nil {
		t.Error("STREAM frame accepted in Initial")
	}
}

func TestAssembleCryptoTruncatedFrame(t *testing.T) {
	p := &Initial{}
	// CRYPTO header claims 100 bytes but only 2 follow.
	bad := []byte{frameCrypto, 0x00, 0x64, 'a', 'b'}
	if err := assemble(p, bad); err == nil {
		t.Error("truncated crypto accepted")
	}
}
