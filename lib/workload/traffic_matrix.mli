(** Traffic matrices: who talks to whom.

    The paper's Figure 1 uses a permutation matrix (every host has one
    fixed partner, nobody sends to itself); the Roadmap adds hotspot
    matrices. All matrices are deterministic given the generator. *)

type kind =
  | Permutation  (** random derangement over all hosts *)
  | Random  (** fresh uniform non-self destination per flow *)
  | Stride of int  (** host [i] sends to [(i + s) mod n] *)
  | Hotspot of { targets : int; fraction : float }
      (** [fraction] of senders all pick partners among [targets]
          randomly-chosen hot hosts; the rest follow a permutation. *)

type t

val create : rng:Sim_engine.Rng.t -> hosts:int -> kind -> t
(** Raises [Invalid_argument] for a network of fewer than 2 hosts, a
    stride that maps hosts to themselves, or a hotspot target count or
    fraction out of range. *)

val dest : t -> src:int -> int
(** Destination for a new flow from [src], never [src] itself.
    [Permutation]/[Stride] always answer the same host; [Random]
    redraws per call. Raises [Invalid_argument] for a [src] outside
    the network. *)

val kind_to_string : kind -> string
