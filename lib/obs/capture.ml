type hist = {
  h_meta : Metrics.meta;
  lo : float;
  hi : float;
  bucket_counts : int array;
  bucket_bounds : (float * float) array;
}

type t = {
  gauges : Metrics.meta array;
  samples : (int * int * float) array;
  hists : hist array;
  events : Metrics.event array;
}

let of_series s =
  let m = Series.metrics s in
  let gauges = Array.map fst (Metrics.gauges m) in
  let samples = Array.init (Series.length s) (fun i -> Series.get s i) in
  let hists =
    Array.map
      (fun (h_meta, h) ->
        let counts = Sim_stats.Histogram.bucket_counts h in
        let bounds =
          Array.init (Array.length counts) (fun i ->
              Sim_stats.Histogram.bucket_bounds h i)
        in
        let lo = fst bounds.(0) in
        let hi = fst bounds.(Array.length bounds - 1) in
        { h_meta; lo; hi; bucket_counts = counts; bucket_bounds = bounds })
      (Metrics.hist_dump m)
  in
  { gauges; samples; hists; events = Metrics.events m }

let is_empty t =
  Array.length t.samples = 0
  && Array.length t.events = 0
  && Array.length t.hists = 0
