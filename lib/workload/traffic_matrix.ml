module Rng = Sim_engine.Rng

type kind =
  | Permutation
  | Random
  | Stride of int
  | Hotspot of { targets : int; fraction : float }

type impl =
  | Fixed of int array  (* partner per host *)
  | Uniform of Rng.t
  | Hot of { partner : int array; hot : int array; is_hot_sender : bool array; rng : Rng.t }

type t = { hosts : int; impl : impl }

let create ~rng ~hosts kind =
  if hosts < 2 then invalid_arg "Traffic_matrix.create: need >= 2 hosts";
  let impl =
    match kind with
    | Permutation -> Fixed (Rng.derangement rng hosts)
    | Random -> Uniform (Rng.split rng)
    | Stride s ->
      if s mod hosts = 0 then
        invalid_arg "Traffic_matrix.create: stride maps hosts to themselves";
      Fixed (Array.init hosts (fun i -> (i + s) mod hosts))
    | Hotspot { targets; fraction } ->
      if targets < 1 || targets >= hosts then
        invalid_arg "Traffic_matrix.create: bad hotspot target count";
      if fraction < 0. || fraction > 1. then
        invalid_arg "Traffic_matrix.create: bad hotspot fraction";
      let ids = Array.init hosts (fun i -> i) in
      Rng.shuffle rng ids;
      let hot = Array.sub ids 0 targets in
      let is_hot = Array.make hosts false in
      Array.iter (fun h -> is_hot.(h) <- true) hot;
      let is_hot_sender = Array.make hosts false in
      (* Non-hot hosts become hot senders with the given probability. *)
      for i = 0 to hosts - 1 do
        if (not is_hot.(i)) && Rng.float rng 1.0 < fraction then
          is_hot_sender.(i) <- true
      done;
      Hot
        {
          partner = Rng.derangement rng hosts;
          hot;
          is_hot_sender;
          rng = Rng.split rng;
        }
  in
  { hosts; impl }

let dest t ~src =
  if src < 0 || src >= t.hosts then invalid_arg "Traffic_matrix.dest: bad src";
  match t.impl with
  | Fixed partner -> partner.(src)
  | Uniform rng ->
    let d = ref (Rng.int rng t.hosts) in
    while !d = src do
      d := Rng.int rng t.hosts
    done;
    !d
  | Hot { partner; hot; is_hot_sender; rng } ->
    if is_hot_sender.(src) then begin
      let d = ref (Rng.pick rng hot) in
      while !d = src do
        d := Rng.pick rng hot
      done;
      !d
    end
    else partner.(src)

let kind_to_string = function
  | Permutation -> "permutation"
  | Random -> "random"
  | Stride s -> Printf.sprintf "stride(%d)" s
  | Hotspot { targets; fraction } ->
    Printf.sprintf "hotspot(%d targets, %.0f%%)" targets (fraction *. 100.)
