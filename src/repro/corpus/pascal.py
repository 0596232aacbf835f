"""A Pascal grammar with five injected-conflict variants (BV10 Pascal.1–5).

The base grammar is a faithful ISO-7185-flavoured Pascal: program
heading, label/const/type/var sections, nested procedures and functions,
records with variant parts, arrays/sets/files/pointers, the full
statement suite (compound, if, case, while, repeat, for, with, goto) and
set-valued expressions. The dangling else is resolved in the base with
the standard %nonassoc THEN/ELSE device, so the base is conflict-free.

Variants:

==========  ==============================================================
Pascal.1    remove the THEN/ELSE precedence (dangling else) and make the
            set-element comma optional — a mix of easy unifying conflicts
            and conflicts whose search hits the time limit
Pascal.2    collapsed MOD layer (``factor : factor MOD factor``) — ambiguous
Pascal.3    duplicate derivation path for the program file list — ambiguous
Pascal.4    associativity-free POW operator — ambiguous
Pascal.5    variant-record tag shadowing (duplicate path) — ambiguous
==========  ==============================================================
"""

from __future__ import annotations

from repro.corpus.inject import add_rules, drop_directive
from repro.corpus.registry import GrammarSpec, PaperRow, register
from repro.grammar import Grammar, load_grammar

PASCAL_BASE = """
%grammar pascal
%start program
%nonassoc THEN
%nonassoc ELSE

program : PROGRAM ID opt_files ';' block '.' ;
opt_files : '(' id_list ')' | %empty ;
id_list : ID | id_list ',' ID ;

block : opt_labels opt_consts opt_types opt_vars opt_subprogs compound ;

opt_labels : LABEL labels ';' | %empty ;
labels : NUM | labels ',' NUM ;

opt_consts : CONST const_defs | %empty ;
const_defs : const_def | const_defs const_def ;
const_def : ID '=' constant ';' ;
constant : NUM | '+' NUM | '-' NUM | STRING | ID | CHR ;

opt_types : TYPE type_defs | %empty ;
type_defs : type_def | type_defs type_def ;
type_def : ID '=' type ';' ;

type : simple_type
     | ARRAY '[' index_types ']' OF type
     | RECORD field_list END
     | SET OF simple_type
     | FILE OF type
     | '^' ID
     | PACKED ARRAY '[' index_types ']' OF type
     | PACKED RECORD field_list END
     ;
simple_type : ID
            | '(' id_list ')'
            | constant DOTDOT constant
            ;
index_types : simple_type | index_types ',' simple_type ;

field_list : fixed_part
           | fixed_part ';' variant_part
           | variant_part
           ;
fixed_part : field_decl | fixed_part ';' field_decl ;
field_decl : id_list ':' type ;
variant_part : CASE ID ':' ID OF variants ;
variants : variant | variants ';' variant ;
variant : case_labels ':' '(' field_list ')' ;
case_labels : constant | case_labels ',' constant ;

opt_vars : VAR var_decls | %empty ;
var_decls : var_decl | var_decls var_decl ;
var_decl : id_list ':' type ';' ;

opt_subprogs : opt_subprogs subprog ';' | %empty ;
subprog : proc_heading ';' block
        | func_heading ';' block
        | proc_heading ';' FORWARD
        | func_heading ';' FORWARD
        ;
proc_heading : PROCEDURE ID opt_params ;
func_heading : FUNCTION ID opt_params ':' ID ;
opt_params : '(' param_groups ')' | %empty ;
param_groups : param_group | param_groups ';' param_group ;
param_group : id_list ':' ID
            | VAR id_list ':' ID
            | PROCEDURE id_list
            | FUNCTION id_list ':' ID
            ;

compound : PBEGIN statements END ;
statements : statement | statements ';' statement ;

statement : opt_label unlabeled ;
opt_label : NUM ':' | %empty ;
unlabeled : assignment
          | proc_call
          | compound
          | IF expr THEN statement %prec THEN
          | IF expr THEN statement ELSE statement
          | CASE expr OF case_elems opt_semi END
          | WHILE expr DO statement
          | REPEAT statements UNTIL expr
          | FOR ID ASSIGN expr TO expr DO statement
          | FOR ID ASSIGN expr DOWNTO expr DO statement
          | WITH variables DO statement
          | GOTO NUM
          | %empty
          ;
opt_semi : ';' | %empty ;

assignment : variable ASSIGN expr ;
variables : variable | variables ',' variable ;
variable : ID
         | variable '[' expr_list ']'
         | variable '.' ID
         | variable '^'
         ;
proc_call : ID '(' expr_list ')' ;

case_elems : case_elem | case_elems ';' case_elem ;
case_elem : case_labels ':' statement ;

expr_list : expr | expr_list ',' expr ;

expr : simple_expr
     | simple_expr relop simple_expr
     ;
relop : '=' | NE | '<' | '>' | LE | GE | IN ;
simple_expr : term2
            | '+' term2
            | '-' term2
            | simple_expr addop term2
            ;
addop : '+' | '-' | OR ;
term2 : factor | term2 mulop factor ;
mulop : '*' | '/' | DIV | MOD | AND ;
factor : variable
       | NUM
       | STRING
       | NIL
       | CHR
       | ID '(' expr_list ')'
       | '(' expr ')'
       | NOT factor
       | '[' set_elems ']'
       | '[' ']'
       ;
set_elems : set_elem | set_elems ',' set_elem ;
set_elem : expr | expr DOTDOT expr ;
"""


def pascal_base() -> Grammar:
    return load_grammar(PASCAL_BASE, name="pascal-base")


def _pascal1() -> Grammar:
    text = drop_directive(PASCAL_BASE, "%nonassoc THEN")
    text = drop_directive(text, "%nonassoc ELSE")
    text = text.replace(
        "| IF expr THEN statement %prec THEN", "| IF expr THEN statement"
    )
    text = text.replace(
        "set_elems : set_elem | set_elems ',' set_elem ;",
        "set_elems : set_elem | set_elems opt_comma set_elem ;\n"
        "opt_comma : ',' | %empty ;",
    )
    return load_grammar(text, name="Pascal.1")


def _pascal2() -> Grammar:
    text = add_rules(PASCAL_BASE, "factor : factor MOD factor ;")
    return load_grammar(text, name="Pascal.2")


def _pascal3() -> Grammar:
    text = add_rules(
        PASCAL_BASE,
        "opt_files : file_spec ;\nfile_spec : '(' id_list ')' ;",
    )
    return load_grammar(text, name="Pascal.3")


def _pascal4() -> Grammar:
    text = add_rules(PASCAL_BASE, "factor : factor POW factor ;")
    return load_grammar(text, name="Pascal.4")


def _pascal5() -> Grammar:
    text = add_rules(
        PASCAL_BASE,
        "variant_part : CASE tag_field OF variants ;\ntag_field : ID ':' ID ;",
    )
    return load_grammar(text, name="Pascal.5")


register(
    GrammarSpec(
        name="Pascal.1",
        category="bv10",
        loader=_pascal1,
        ambiguous=True,
        paper=PaperRow(79, 177, 323, 3, True, 2, 0, 1, 0.196, 0.098),
    )
)
register(
    GrammarSpec(
        name="Pascal.2",
        category="bv10",
        loader=_pascal2,
        ambiguous=True,
        paper=PaperRow(79, 177, 324, 5, True, 5, 0, 0, 0.296, 0.059),
    )
)
register(
    GrammarSpec(
        name="Pascal.3",
        category="bv10",
        loader=_pascal3,
        ambiguous=True,
        paper=PaperRow(79, 177, 321, 1, True, 1, 0, 0, 0.070, 0.070),
    )
)
register(
    GrammarSpec(
        name="Pascal.4",
        category="bv10",
        loader=_pascal4,
        ambiguous=True,
        paper=PaperRow(79, 177, 322, 1, True, 1, 0, 0, 0.081, 0.081),
    )
)
register(
    GrammarSpec(
        name="Pascal.5",
        category="bv10",
        loader=_pascal5,
        ambiguous=True,
        paper=PaperRow(79, 177, 322, 1, True, 1, 0, 0, 0.113, 0.113),
    )
)
