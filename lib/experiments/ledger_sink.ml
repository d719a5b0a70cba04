(* Renders flow-ledger dumps into --out artifacts: a per-flow table
   (CSV + JSON), a JSONL stream, and an FCT-percentile summary by size
   class — the paper's CDF inputs, straight from the ledger. Pure
   functions of the dump, so the artifacts inherit its determinism
   guarantee (byte-identical at any job count, in both exec modes). *)

module L = Sim_obs.Flow_ledger

let flow_table ~prefix (d : L.dump) =
  let int key proj = Sink.column key Sink.int proj in
  Sink.table ~name:prefix
    ~columns:
      [
        int "conn" (fun (e : L.entry) -> e.L.e_conn);
        int "src" (fun e -> e.L.e_src);
        int "dst" (fun e -> e.L.e_dst);
        int "size" (fun e -> e.L.e_size);
        Sink.column "class" Sink.str (fun e ->
            if e.L.e_long then "long" else "short");
        int "start_ns" (fun e -> e.L.e_start_ns);
        int "handshake_ns" (fun e -> e.L.e_handshake_ns);
        int "switch_ns" (fun e -> e.L.e_switch_ns);
        int "promote_ns" (fun e -> e.L.e_promote_ns);
        int "complete_ns" (fun e -> e.L.e_complete_ns);
        int "fct_ns" (fun e ->
            match L.fct_ns e with Some v -> v | None -> -1);
        int "rtos" (fun e -> e.L.e_rtos);
        int "fast_rtxs" (fun e -> e.L.e_fast_rtxs);
        int "bytes" (fun e -> e.L.e_bytes);
      ]
    (Array.to_list d)

(* One JSON object per flow; -1 sentinel timestamps are omitted, so a
   record reads as "these lifecycle events happened". *)
let jsonl (d : L.dump) =
  let buf = Buffer.create (256 * Array.length d) in
  Array.iter
    (fun (e : L.entry) ->
      Buffer.add_char buf '{';
      Printf.bprintf buf
        "\"conn\":%d,\"src\":%d,\"dst\":%d,\"size\":%d,\"class\":%S,\"start_ns\":%d"
        e.L.e_conn e.L.e_src e.L.e_dst e.L.e_size
        (if e.L.e_long then "long" else "short")
        e.L.e_start_ns;
      let opt name v = if v >= 0 then Printf.bprintf buf ",%S:%d" name v in
      opt "handshake_ns" e.L.e_handshake_ns;
      opt "switch_ns" e.L.e_switch_ns;
      opt "promote_ns" e.L.e_promote_ns;
      opt "complete_ns" e.L.e_complete_ns;
      (match L.fct_ns e with
      | Some v -> Printf.bprintf buf ",\"fct_ns\":%d" v
      | None -> ());
      Printf.bprintf buf ",\"rtos\":%d,\"fast_rtxs\":%d,\"bytes\":%d}\n"
        e.L.e_rtos e.L.e_fast_rtxs e.L.e_bytes)
    d;
  Buffer.contents buf

(* FCT percentiles by size class over the completed flows — the
   distribution inputs behind the paper's CDFs. *)
let summary_table ~prefix (d : L.dump) =
  let classes = [ ("short", false); ("long", true) ] in
  let rows =
    List.filter_map
      (fun (cls, long) ->
        let flows =
          Array.to_list d |> List.filter (fun e -> e.L.e_long = long)
        in
        if flows = [] then None
        else begin
          let fcts_ms =
            List.filter_map
              (fun e ->
                Option.map (fun ns -> float_of_int ns /. 1e6) (L.fct_ns e))
              flows
            |> Array.of_list
          in
          Array.sort compare fcts_ms;
          let pct q =
            if Array.length fcts_ms = 0 then nan
            else Sim_stats.Summary.percentile fcts_ms q
          in
          Some (cls, List.length flows, Array.length fcts_ms, pct)
        end)
      classes
  in
  let pct key q = Sink.column key Sink.float (fun (_, _, _, pct) -> pct q) in
  Sink.table
    ~name:(prefix ^ "-summary")
    ~columns:
      [
        Sink.column "class" Sink.str (fun (cls, _, _, _) -> cls);
        Sink.column "flows" Sink.int (fun (_, n, _, _) -> n);
        Sink.column "completed" Sink.int (fun (_, _, c, _) -> c);
        pct "fct_p50_ms" 50.;
        pct "fct_p90_ms" 90.;
        pct "fct_p99_ms" 99.;
        pct "fct_max_ms" 100.;
      ]
    rows

let dump_artifacts ~experiment ~label (d : L.dump) =
  let prefix = Printf.sprintf "ledger-%s-%s" experiment (Sink.sanitize label) in
  [
    Sink.Table (flow_table ~prefix d);
    Sink.Raw { basename = prefix ^ ".jsonl"; contents = jsonl d };
    Sink.Table (summary_table ~prefix d);
  ]

let artifacts ~experiment pairs =
  List.concat_map
    (fun (label, d) -> dump_artifacts ~experiment ~label d)
    pairs
