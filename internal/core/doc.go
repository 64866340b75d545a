// Package core implements the paper's contribution: a checking
// framework for mobile-agent systems that lets the agent programmer
// choose a protection mechanism from the reference-states design space
// (paper §5).
//
// The design space has three axes (§3.5):
//
//   - Moment of checking: after every execution session (the
//     CheckAfterSession callback, invoked as the first action on the
//     next host) or after the agent finished its task (CheckAfterTask,
//     invoked by the last host). See Moment.
//
//   - Used reference data: initial state, resulting state, session
//     input, execution log (trace), replicated host resources. A
//     mechanism declares what it needs by implementing the requester
//     marker interfaces (InitialStateRequester, ResultingStateRequester,
//     InputRequester, ExecutionLogRequester, ResourceRequester — Fig. 4),
//     and PackageSession encodes exactly the declared data of a
//     finalized session, in one pass over its record: data that was
//     not declared does not travel. A checker reads a package from its
//     bytes (ScanReferencePackage: the session it names and its
//     digests) and decodes it (UnmarshalReferencePackage) only to
//     replay it.
//
//   - Checking algorithm: rules, proofs, re-execution, or an arbitrary
//     program (the most powerful option, which subsumes the others).
//     Each Mechanism is its algorithm: the rule engine is package
//     appraisal, Merkle spot-check proofs are package proof, and
//     re-execution is host.Replay, shared by refproto's check after
//     each session and vigna's audit. Re-execution compares strictly,
//     the replayed state's digest against the signed one: the
//     interpreter is single-threaded and byte-deterministic, so an
//     honest session replays to exactly the state it reported.

// Mechanisms plug into the platform through the Mechanism lifecycle
// interface; Node drives agents through hosts, invoking mechanism
// callbacks at the right moments and forwarding agents over any
// transport.Network.
package core
