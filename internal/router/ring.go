// Package router is a thin stateless routing tier for a replicated MIE
// cluster: it places repositories on nodes by consistent hashing (virtual
// nodes over an explicit membership list — no gossip, no coordination),
// relays multiplexed wire frames to the chosen node without decoding their
// payloads beyond the repository id, and fails reads over to the next
// healthy caught-up replica on the ring when a node is down. Mutations and
// training always go to the leader.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over named nodes. Each node owns VNodes
// pseudo-random points on a 32-bit circle; a key is served by the node
// owning the first point at or after the key's hash, and its failover
// preference is the order in which further distinct nodes appear walking
// the circle. Placement depends only on (membership, vnodes), so every
// router instance computes identical preferences without coordination.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint32
	node string
}

// NewRing builds a ring with vnodes points per node (64 if vnodes <= 0).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{nodes: append([]string(nil), nodes...)}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash32(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's membership.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Prefer returns every node in preference order for key: the owner first,
// then each further distinct node in ring-walk order. Reads fail over along
// this order; since it is stable per key, each repository has a sticky home
// node and a deterministic failover chain.
func (r *Ring) Prefer(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash32(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}
