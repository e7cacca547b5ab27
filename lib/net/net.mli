(** Exceptions shared across the networking stack. *)

exception Timeout
(** A per-operation deadline expired while the fiber was parked on
    descriptor readiness (or, on a blocking pool, while waiting in
    [poll]).  The fiber fails instead of parking forever. *)

exception Closed
(** The connection (or client) was closed underneath the operation. *)

exception Peer_closed
(** The peer hung up in the middle of an exchange (EOF mid-frame, or a
    reset while a response was still owed).  Distinct from
    {!Protocol_error}: the bytes received so far were well-formed, the
    peer just went away — which makes this failure {e retryable}, where
    a malformed stream is not. *)

exception Protocol_error of string
(** The peer sent bytes that do not parse as an RPC frame, or a frame
    exceeding the size limit.  Not retryable: the stream itself is
    broken, a replay would resend the same garbage. *)

exception Remote_error of string
(** The server's handler raised; the exception text travelled back in
    the response frame's error status.  Not retryable by default: the
    request reached the server and failed deterministically. *)

exception Circuit_open
(** A {!Resilience.Breaker} rejected the call without issuing it: the
    endpoint has failed repeatedly and its cooldown has not yet passed.
    Fail-fast signal — callers should shed or redirect, not spin. *)

exception Stalled of string
(** Rebinding of {!Lhws_runtime.Watchdog.Stalled}: the stall watchdog
    declared this fiber's parked I/O intent lost (no registration backing
    it past the grace period, or a registration the kernel no longer
    honours) and failed it loudly instead of letting it hang.  The
    payload describes the stall.  Distinct from {!Timeout}: a timeout is
    the {e expected} expiry of a configured deadline; a stall is the
    runtime detecting its own lost wakeup — a bug signal, not a slow
    peer. *)
