(* callcount — a source preprocessor that counts calls to every
   top-level function binding of a module.

     callcount FILE.ml    print FILE.ml instrumented
     callcount FILE.mli   print FILE.mli unchanged

   Every [let f args = body] at the top of the file, or at the top of a
   structure module nested in it, becomes [let f args = incr; body].
   At exit the program appends one "Module.path.f COUNT" line per
   instrumented binding to the file named by $CALLCOUNT_OUT (nothing
   when it is unset), so several processes may share one file; sum
   the lines per name. Bindings that are not syntactic functions
   (constants, partial applications) are not counted.

   To count a library, add to its stanza, in a throwaway copy of the
   tree (from lib/NAME/dune):

     (preprocess
      (action (run %{exe:../../tools/callcount/callcount.exe} %{input-file})))

   then run the programs with CALLCOUNT_OUT set. *)

open Parsetree

let names = ref []
let count = ref 0

let counter name =
  let i = !count in
  incr count;
  names := name :: !names;
  Printf.sprintf
    "Stdlib.Array.unsafe_set __callcount %d \
     (Stdlib.Array.unsafe_get __callcount %d + 1)"
    i i
  |> Lexing.from_string |> Parse.expression

(* [Some e'] when [e] is a syntactic function: its innermost body
   prefixed by the counter. *)
let rec instrument name ~under_fun e =
  let wrap body =
    Ast_helper.Exp.sequence ~loc:body.pexp_loc (counter name) body
  in
  match e.pexp_desc with
  | Pexp_fun (l, d, p, body) ->
    let body =
      match instrument name ~under_fun:true body with
      | Some b -> b
      | None -> wrap body
    in
    Some { e with pexp_desc = Pexp_fun (l, d, p, body) }
  | Pexp_function _ when not under_fun ->
    (* [function cases] becomes [fun x -> incr; (function cases) x]. *)
    let x = Location.mknoloc "__callcount_arg" in
    let arg =
      Ast_helper.Exp.ident (Location.mknoloc (Longident.Lident x.txt))
    in
    Some
      (Ast_helper.Exp.fun_ Nolabel None (Ast_helper.Pat.var x)
         (wrap (Ast_helper.Exp.apply e [ (Nolabel, arg) ])))
  | Pexp_newtype (t, body) ->
    Option.map
      (fun b -> { e with pexp_desc = Pexp_newtype (t, b) })
      (instrument name ~under_fun body)
  | Pexp_constraint (body, ty) when not under_fun ->
    Option.map
      (fun b -> { e with pexp_desc = Pexp_constraint (b, ty) })
      (instrument name ~under_fun body)
  | _ -> None

let rec pat_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> pat_name p
  | _ -> None

let rec structure prefix items = List.map (item prefix) items

and item prefix si =
  match si.pstr_desc with
  | Pstr_value (rf, vbs) ->
    let vb b =
      match pat_name b.pvb_pat with
      | None -> b
      | Some n -> (
          match instrument (prefix ^ n) ~under_fun:false b.pvb_expr with
          | Some e -> { b with pvb_expr = e }
          | None -> b)
    in
    { si with pstr_desc = Pstr_value (rf, List.map vb vbs) }
  | Pstr_module mb -> { si with pstr_desc = Pstr_module (binding prefix mb) }
  | Pstr_recmodule mbs ->
    { si with pstr_desc = Pstr_recmodule (List.map (binding prefix) mbs) }
  | _ -> si

and binding prefix mb =
  match mb.pmb_name.txt with
  | Some m -> { mb with pmb_expr = modexp (prefix ^ m ^ ".") mb.pmb_expr }
  | None -> mb

and modexp prefix me =
  match me.pmod_desc with
  | Pmod_structure s ->
    { me with pmod_desc = Pmod_structure (structure prefix s) }
  | Pmod_constraint (m, t) ->
    { me with pmod_desc = Pmod_constraint (modexp prefix m, t) }
  | _ -> me

let () =
  let file = Sys.argv.(1) in
  let src = In_channel.with_open_bin file In_channel.input_all in
  if not (Filename.check_suffix file ".ml") then print_string src
  else begin
    let modname =
      String.capitalize_ascii
        (Filename.remove_extension (Filename.basename file))
    in
    let lexbuf = Lexing.from_string src in
    Location.init lexbuf file;
    let body = structure (modname ^ ".") (Parse.implementation lexbuf) in
    let quoted = List.rev_map (Printf.sprintf "%S") !names in
    let prelude =
      Printf.sprintf
        "[@@@ocaml.warning \"-a\"]\n\
         let __callcount = Stdlib.Array.make %d 0\n\
         let __callcount_names = [| %s |]\n\
         let () = Stdlib.at_exit (fun () ->\n\
        \  match Stdlib.Sys.getenv_opt \"CALLCOUNT_OUT\" with\n\
        \  | None -> ()\n\
        \  | Some f ->\n\
        \    let b = Stdlib.Buffer.create 256 in\n\
        \    Stdlib.Array.iteri (fun i n ->\n\
        \      Stdlib.Buffer.add_string b (Stdlib.Printf.sprintf \"%%s %%d\\n\" n __callcount.(i)))\n\
        \      __callcount_names;\n\
        \    let oc = Stdlib.open_out_gen [ Open_append; Open_creat ] 0o644 f in\n\
        \    Stdlib.Buffer.output_buffer oc b; Stdlib.close_out oc)\n"
        !count (String.concat "; " quoted)
    in
    print_string prelude;
    Format.printf "%a@." Pprintast.structure body
  end
