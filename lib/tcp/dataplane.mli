(** Shared data-level state of a multipath connection: a byte count.

    One side hands chunk lengths to subflows on demand (the
    transmission opportunity *is* the scheduler: whichever subflow has
    congestion-window space pulls the next chunk); the other side
    counts the bytes the subflow receivers hand it, each once, to
    detect completion — the paper's flow-completion definition (all
    bytes received, any subflow). Which bytes a chunk holds never
    matters, so segments carry no data-level sequence. *)

type t

val create : size:int -> t

(** {1 Sender side} *)

val pull : t -> max:int -> int
(** Allocate the next chunk and return its length, at most [max]; 0
    once every byte is allocated. *)

val assigned : t -> int
(** Bytes allocated to subflows so far. *)

(** {1 Receiver side} *)

val deliver : t -> int -> bool
(** [deliver t len] counts [len] new bytes (the caller passes each byte
    once) and returns [true] on the one delivery that brings the count
    to [size]. In the dev profile it fails when the count would exceed
    {!assigned}: no byte is delivered before {!pull} has handed it
    out, nor counted twice. *)

val received_bytes : t -> int
val size : t -> int
