package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// valueLen is the size of every value the kv workloads write.
const valueLen = 100

// makeValue builds a self-validating value: it names the key it belongs to,
// the connection that wrote it and that connection's sequence number (the
// stamp), pads to valueLen bytes, and ends in a checksum of everything
// before it. A value read back under the wrong key, from another writer, of
// a stale or future write, or with any byte changed fails checkValue.
func makeValue(key string, conn int, seq uint64) []byte {
	head := fmt.Sprintf("%s|c%d|s%d|", key, conn, seq)
	b := make([]byte, 0, valueLen)
	b = append(b, head...)
	for i := 0; len(b) < valueLen-17; i++ {
		b = append(b, byte('a'+(seq+uint64(i))%26))
	}
	b = append(b, '|')
	return fmt.Appendf(b, "%016x", checksum(b))
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

var errBadValue = errors.New("value fails self-validation")

// checkValue validates v as written by makeValue for key by conn and
// returns its stamp.
func checkValue(v []byte, key string, conn int) (uint64, error) {
	if len(v) != valueLen {
		return 0, fmt.Errorf("%w: key %s: %d bytes", errBadValue, key, len(v))
	}
	body, sum := v[:valueLen-16], string(v[valueLen-16:])
	if fmt.Sprintf("%016x", checksum(body)) != sum {
		return 0, fmt.Errorf("%w: key %s: checksum mismatch", errBadValue, key)
	}
	f := strings.SplitN(string(body), "|", 4)
	if len(f) != 4 || f[0] != key || f[1] != "c"+strconv.Itoa(conn) || !strings.HasPrefix(f[2], "s") {
		return 0, fmt.Errorf("%w: key %s: header %q", errBadValue, key, strings.Join(f[:len(f)-1], "|"))
	}
	seq, err := strconv.ParseUint(f[2][1:], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: key %s: stamp %q", errBadValue, key, f[2])
	}
	return seq, nil
}

// expectValue checks that v is key's value stamped want by conn.
func expectValue(v []byte, key string, conn int, want uint64) error {
	seq, err := checkValue(v, key, conn)
	if err != nil {
		return err
	}
	if seq != want {
		return fmt.Errorf("%w: key %s: stamp %d, last acknowledged %d", errBadValue, key, seq, want)
	}
	return nil
}

// expectPair checks one MULTI pair: both halves valid, with equal stamps
// that match the last acknowledged EXEC of the pair.
func expectPair(a, b []byte, keyA, keyB string, conn int, want uint64) error {
	sa, err := checkValue(a, keyA, conn)
	if err != nil {
		return err
	}
	sb, err := checkValue(b, keyB, conn)
	if err != nil {
		return err
	}
	if sa != sb {
		return fmt.Errorf("%w: pair %s/%s: stamps %d and %d differ", errBadValue, keyA, keyB, sa, sb)
	}
	if sa != want {
		return fmt.Errorf("%w: pair %s/%s: stamp %d, last acknowledged %d", errBadValue, keyA, keyB, sa, want)
	}
	return nil
}

// expectCounter checks an INCR reply or a stored counter against the
// benchmark's exact running total.
func expectCounter(got []byte, key string, want int64) error {
	n, err := strconv.ParseInt(string(got), 10, 64)
	if err != nil || n != want {
		return fmt.Errorf("%w: counter %s: %q, expected %d", errBadValue, key, got, want)
	}
	return nil
}

// mapValue is ptm-map's value for key at stamp seq.
func mapValue(key, seq uint64) uint64 {
	return seq<<24 | (key*0x9E3779B97F4A7C15>>40)&0xFFFFFF
}
