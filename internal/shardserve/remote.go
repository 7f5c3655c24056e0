package shardserve

import (
	"fmt"

	"knor/internal/netcluster"
	"knor/internal/serve"
)

// Shard-push and assign-RPC payload codecs, shared by the coordinator
// hub and the peer loop so both sides agree on one schema. The
// float payloads ride as AppendFloats bytes with the element width in
// the frame header — exact bits, no float conversion on the wire.

// encodeShard builds a FrameShard payload.
func encodeShard(key string, version, node, krows, d int, payload []byte) []byte {
	b := netcluster.AppendString(nil, key)
	b = netcluster.AppendUint32(b, uint32(version))
	b = netcluster.AppendUint32(b, uint32(node))
	b = netcluster.AppendUint32(b, uint32(krows))
	b = netcluster.AppendUint32(b, uint32(d))
	return append(b, payload...)
}

// decodeShard unpacks a FrameShard payload; rest is the raw float
// payload (krows×d values at the frame's element width).
func decodeShard(b []byte) (key string, version, node, krows, d int, rest []byte, err error) {
	key, off, err := netcluster.StringAt(b, 0)
	if err != nil {
		return "", 0, 0, 0, 0, nil, err
	}
	var vs [4]uint32
	for i := range vs {
		if vs[i], err = netcluster.Uint32At(b, off+4*i); err != nil {
			return "", 0, 0, 0, 0, nil, err
		}
	}
	return key, int(vs[0]), int(vs[1]), int(vs[2]), int(vs[3]), b[off+16:], nil
}

// encodeAssignReq builds a FrameAssignReq payload.
func encodeAssignReq(key string, nrows, d int, rows []byte) []byte {
	b := netcluster.AppendString(nil, key)
	b = netcluster.AppendUint32(b, uint32(nrows))
	b = netcluster.AppendUint32(b, uint32(d))
	return append(b, rows...)
}

// decodeAssignReq unpacks a FrameAssignReq payload.
func decodeAssignReq(b []byte) (key string, nrows, d int, rows []byte, err error) {
	key, off, err := netcluster.StringAt(b, 0)
	if err != nil {
		return "", 0, 0, nil, err
	}
	rn, err := netcluster.Uint32At(b, off)
	if err != nil {
		return "", 0, 0, nil, err
	}
	rd, err := netcluster.Uint32At(b, off+4)
	if err != nil {
		return "", 0, 0, nil, err
	}
	return key, int(rn), int(rd), b[off+8:], nil
}

// encodeAssignResp builds a FrameAssignResp payload: status 1 plus the
// assignments, or status 0 plus the error text.
func encodeAssignResp(as []serve.Assignment, err error) []byte {
	if err != nil {
		b := netcluster.AppendUint32(nil, 0)
		return netcluster.AppendString(b, err.Error())
	}
	b := netcluster.AppendUint32(nil, 1)
	b = netcluster.AppendUint32(b, uint32(len(as)))
	for _, a := range as {
		b = netcluster.AppendUint32(b, uint32(a.Cluster))
		b = netcluster.AppendUint32(b, uint32(a.Version))
		b = netcluster.AppendFloats(b, []float64{a.SqDist})
	}
	return b
}

// decodeAssignResp is encodeAssignResp's inverse. A status-0 payload
// decodes to the peer's error (the fan-out fails over on it).
func decodeAssignResp(b []byte) ([]serve.Assignment, error) {
	status, err := netcluster.Uint32At(b, 0)
	if err != nil {
		return nil, err
	}
	if status == 0 {
		msg, _, err := netcluster.StringAt(b, 4)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("shardserve: peer: %s", msg)
	}
	n, err := netcluster.Uint32At(b, 4)
	if err != nil {
		return nil, err
	}
	// 16 bytes a row (cluster, version, float64 distance): check the
	// untrusted count against the payload before allocating for it.
	if uint64(n)*16 > uint64(len(b)-8) {
		return nil, netcluster.ErrShortPayload
	}
	out := make([]serve.Assignment, n)
	off := 8
	var dist [1]float64
	for i := range out {
		cl, err := netcluster.Uint32At(b, off)
		if err != nil {
			return nil, err
		}
		ver, err := netcluster.Uint32At(b, off+4)
		if err != nil {
			return nil, err
		}
		if off, err = netcluster.FloatsAt(b, off+8, 1, dist[:]); err != nil {
			return nil, err
		}
		out[i] = serve.Assignment{Cluster: int32(cl), Version: int(ver), SqDist: dist[0]}
	}
	return out, nil
}
