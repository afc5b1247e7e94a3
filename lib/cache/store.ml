(** Content-addressed verification-result cache, disk tier. See the
    interface for the keying rule and corruption contract.

    On-disk entry layout (one file per key, [<dir>/<key>.vrmc]):

    {v
    vrm-cache 1 <engine-version>\n
    <compact JSON payload>\n
    <md5 hex of the payload line>\n
    v}

    Reads re-derive the checksum and re-parse the payload; any mismatch,
    short read, unknown format version or engine-version skew is a miss.

    This module is deliberately disk-only: every [find] pays the file
    open, the checksum and the JSON parse. The in-memory tier lives in
    {!Hot}, which fronts a store with a sharded, size-bounded LRU of
    decoded payloads — keeping the two tiers in separate modules keeps
    the disk path honest (benchmarkable on its own) and the memory
    policy (sharding, eviction) out of the persistence code. *)

let format_version = 1
let suffix = ".vrmc"

type counters = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  entries : int;
}

type t = {
  dir : string option;
  engine_version : string;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
  lock : Mutex.t;
}

let make_key ~engine_version ~model ~budgets ~prog_digest =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ engine_version; model; budgets; prog_digest ]))

let create ?dir ~engine_version () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  { dir;
    engine_version;
    hits = 0;
    misses = 0;
    stores = 0;
    corrupt = 0;
    lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let path t key =
  match t.dir with
  | None -> None
  | Some d -> Some (Filename.concat d (key ^ suffix))

(* Read and validate a disk entry. Any deviation from the format is
   [Error `Corrupt]; a missing file is [Error `Absent]. Never raises. *)
let read_disk t key : (Json.t, [ `Absent | `Corrupt ]) result =
  match path t key with
  | None -> Error `Absent
  | Some file -> (
      match open_in_bin file with
      | exception _ -> Error `Absent
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let line () = try Some (input_line ic) with End_of_file -> None in
              match (line (), line (), line ()) with
              | Some header, Some payload, Some checksum -> (
                  let expected_header =
                    Printf.sprintf "vrm-cache %d %s" format_version
                      t.engine_version
                  in
                  if header <> expected_header then Error `Corrupt
                  else if Digest.to_hex (Digest.string payload) <> checksum
                  then Error `Corrupt
                  else
                    match Json.of_string payload with
                    | Ok v -> Ok v
                    | Error _ -> Error `Corrupt)
              | _ -> Error `Corrupt))

let write_disk t key (v : Json.t) =
  match path t key with
  | None -> ()
  | Some file -> (
      let payload = Json.to_string v in
      let tmp = file ^ ".tmp" in
      try
        let oc = open_out_bin tmp in
        Printf.fprintf oc "vrm-cache %d %s\n%s\n%s\n" format_version
          t.engine_version payload
          (Digest.to_hex (Digest.string payload));
        close_out oc;
        Sys.rename tmp file
      with _ -> (try Sys.remove tmp with _ -> ()))

(* A hit refreshes the entry's mtime so [gc]'s LRU-by-mtime policy keeps
   warm entries and evicts genuinely cold ones, not merely old ones. *)
let touch t key =
  match path t key with
  | None -> ()
  | Some file -> ( try Unix.utimes file 0. 0. with _ -> ())

(* The read and the touch run outside the lock, so one slow read blocks
   no other lookup, [add] or [counters]: [add] renames a whole entry into
   place and [gc] only unlinks, so a read sees a whole entry or none. *)
let find t key =
  let r = read_disk t key in
  if Result.is_ok r then touch t key;
  locked t (fun () ->
      match r with
      | Ok _ -> t.hits <- t.hits + 1
      | Error `Corrupt ->
          t.corrupt <- t.corrupt + 1;
          t.misses <- t.misses + 1
      | Error `Absent -> t.misses <- t.misses + 1);
  Result.to_option r

let add t key v =
  locked t (fun () ->
      t.stores <- t.stores + 1;
      write_disk t key v)

let entry_names t =
  match t.dir with
  | None -> []
  | Some d -> (
      match Sys.readdir d with
      | exception _ -> []
      | files ->
          Array.to_list files
          |> List.filter (fun f -> Filename.check_suffix f suffix))

let entry_count t = List.length (entry_names t)

type gc_report = { examined : int; deleted : int; kept : int }

let gc t ~max_entries =
  let max_entries = max 0 max_entries in
  locked t (fun () ->
      match t.dir with
      | None -> { examined = 0; deleted = 0; kept = 0 }
      | Some d ->
          let stamped =
            List.filter_map
              (fun f ->
                let file = Filename.concat d f in
                match Unix.stat file with
                | exception _ -> None
                | st -> Some (file, st.Unix.st_mtime))
              (entry_names t)
          in
          (* oldest first; ties broken by name so the order (and hence
             the survivor set) is deterministic *)
          let ordered =
            List.sort
              (fun (fa, ta) (fb, tb) ->
                match compare ta tb with 0 -> compare fa fb | c -> c)
              stamped
          in
          let examined = List.length ordered in
          let excess = examined - max_entries in
          let deleted = ref 0 in
          List.iteri
            (fun i (file, _) ->
              if i < excess then (
                try
                  Sys.remove file;
                  incr deleted
                with _ -> ()))
            ordered;
          { examined; deleted = !deleted; kept = examined - !deleted })

let counters t =
  locked t (fun () ->
      { hits = t.hits;
        misses = t.misses;
        stores = t.stores;
        corrupt = t.corrupt;
        entries = entry_count t })

let pp_counters fmt (c : counters) =
  Format.fprintf fmt "hits=%d misses=%d stores=%d corrupt=%d entries=%d"
    c.hits c.misses c.stores c.corrupt c.entries
