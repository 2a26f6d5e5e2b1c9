package api

// Opaque pagination cursors for /v1/events. A token pins the full query
// shape — index fingerprint, family, kind set, day window, hysteresis,
// page size, offset — plus a checksum, so a cursor walk is deterministic
// and byte-identical however it is resumed: the fingerprint rejects
// cursors minted against a different index build, and the checksum
// rejects malformed or hand-edited tokens with a 400 instead of serving
// a silently wrong page. The checksum is an integrity check, not a
// secret; there is nothing confidential in a cursor.

import (
	"encoding/base64"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// pageTokenSalt fixes the token checksum domain so a checksum computed
// by other CRC-32 users cannot accidentally validate.
const pageTokenSalt = 0x1ace5eed

// errBadPageToken maps to 400 for any structurally invalid cursor.
var errBadPageToken = errors.New("invalid page_token")

// errStalePageToken maps to 400 for a cursor minted against a different
// index build: offsets into a rebuilt result set would silently skip or
// repeat events, so the client must restart the walk.
var errStalePageToken = errors.New("stale page_token: the timeline index was rebuilt, restart pagination")

// pageToken is one decoded /v1/events cursor.
type pageToken struct {
	fp         string
	family     string
	kinds      string // canonical sorted comma-joined kind set; "" = all
	from, to   int
	hysteresis int // 0 = detection default
	limit      int // 0 = no pagination
	offset     int
}

func (t pageToken) encode() string {
	payload := fmt.Sprintf("v1|%s|%s|%s|%d|%d|%d|%d|%d",
		t.fp, t.family, t.kinds, t.from, t.to, t.hysteresis, t.limit, t.offset)
	sum := crc32.ChecksumIEEE([]byte(payload)) ^ pageTokenSalt
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%s|%08x", payload, sum)))
}

// pageEnd returns where the token's page ends in a result set of total
// events — events[t.offset:end] is the page, and end < total means more
// follow — or false for an offset past the end. The token comes from
// outside (the checksum salt is public), so a limit of any size is legal
// and means "the rest": the comparison is on the remainder, which cannot
// overflow the way offset+limit can.
func (t pageToken) pageEnd(total int) (end int, ok bool) {
	if t.offset > total {
		return 0, false
	}
	if t.limit < total-t.offset {
		return t.offset + t.limit, true
	}
	return total, true
}

// decodePageToken validates and decodes a cursor against the current
// index fingerprint.
func decodePageToken(s, fp string) (pageToken, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return pageToken{}, errBadPageToken
	}
	str := string(raw)
	i := strings.LastIndexByte(str, '|')
	if i < 0 || len(str)-i-1 != 8 {
		return pageToken{}, errBadPageToken
	}
	payload, sumHex := str[:i], str[i+1:]
	sum, err := strconv.ParseUint(sumHex, 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE([]byte(payload))^pageTokenSalt {
		return pageToken{}, errBadPageToken
	}
	parts := strings.Split(payload, "|")
	if len(parts) != 9 || parts[0] != "v1" {
		return pageToken{}, errBadPageToken
	}
	t := pageToken{fp: parts[1], family: parts[2], kinds: parts[3]}
	for fi, dst := range []*int{&t.from, &t.to, &t.hysteresis, &t.limit, &t.offset} {
		v, err := strconv.Atoi(parts[4+fi])
		if err != nil {
			return pageToken{}, errBadPageToken
		}
		*dst = v
	}
	if t.limit < 1 || t.offset < 0 || t.from < 0 || (t.to >= 0 && t.to < t.from) {
		return pageToken{}, errBadPageToken
	}
	if t.fp != fp {
		return pageToken{}, errStalePageToken
	}
	return t, nil
}
