// Package rapid is a Go implementation of Rapid, the stable and consistent
// membership service described in "Stable and Consistent Membership at Scale
// with Rapid" (Suresh et al., USENIX ATC 2018).
//
// Rapid organises cluster members into a K-ring expander monitoring topology,
// aggregates observer alerts with a multi-process cut detector that waits for
// the churn to stabilise (almost-everywhere agreement), and converts the
// detected cut into a strongly consistent view change with a leaderless
// Fast Paxos round (falling back to classical Paxos under conflicts). The
// result is a membership service that removes groups of faulty processes in a
// single coordinated step, stays stable under asymmetric network failures and
// heavy packet loss, and gives every member the same sequence of views.
//
// # Quick start
//
//	net := rapid.NewSimulatedNetwork(rapid.SimulatedNetworkOptions{})
//	seed, _ := rapid.StartCluster("127.0.0.1:5001", rapid.DefaultSettings(), net)
//	peer, _ := rapid.JoinCluster("127.0.0.1:5002", []rapid.Addr{"127.0.0.1:5001"}, rapid.DefaultSettings(), net)
//	peer.Subscribe(func(vc rapid.ViewChange) { fmt.Println("view:", vc.Members) })
//
// Real deployments use the TCP transport (NewTCPNetwork) and cmd/rapid-node;
// tests, benchmarks and the paper's experiments run whole clusters in-process
// on the simulated network with fault injection.
//
// The repository also contains the systems Rapid is evaluated against
// (a SWIM/Memberlist-style gossip baseline, a ZooKeeper-style registry, and
// an all-to-all gossip failure detector), the end-to-end workloads of §7, and
// a benchmark harness regenerating every table and figure of the paper; see
// docs/ARCHITECTURE.md and docs/EXPERIMENTS.md.
package rapid
