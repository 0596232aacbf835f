"""A SQL grammar with five injected-conflict variants (BV10's SQL.1–5).

The base grammar covers the core of SQL-92 DML/DDL: SELECT with joins,
grouping, ordering and subqueries; INSERT/UPDATE/DELETE; CREATE/DROP
TABLE with column constraints; stratified boolean and arithmetic
expressions; CASE expressions and aggregate functions. The base is
conflict-free; each variant injects one defect class:

=======  ==================================================================
SQL.1    dangling ELSE inside CASE WHEN clauses — ambiguous
SQL.2    ambiguous join nesting (``join_ref JOIN join_ref``) — ambiguous
SQL.3    duplicate derivation path for the DROP TABLE name — ambiguous
SQL.4    associativity-free power operator — ambiguous
SQL.5    collapsed boolean grammar (``cond : cond AND cond``) — ambiguous
=======  ==================================================================
"""

from __future__ import annotations

from repro.corpus.inject import add_rules
from repro.corpus.registry import GrammarSpec, PaperRow, register
from repro.grammar import Grammar, load_grammar

SQL_BASE = """
%grammar sql
%start sql_list

sql_list : stmt ';' | sql_list stmt ';' ;

stmt : select_stmt
     | insert_stmt
     | update_stmt
     | delete_stmt
     | create_stmt
     | drop_stmt
     ;

select_stmt : SELECT opt_distinct select_list from_clause opt_where
              opt_group opt_having opt_order ;

opt_distinct : DISTINCT | ALL | %empty ;

select_list : '*' | sel_items ;
sel_items : sel_item | sel_items ',' sel_item ;
sel_item : expr | expr AS ID | ID '.' '*' ;

from_clause : FROM table_refs ;
table_refs : join_ref | table_refs ',' join_ref ;
join_ref : table_ref
         | join_ref JOIN table_ref ON cond
         | join_ref INNER JOIN table_ref ON cond
         | join_ref LEFT JOIN table_ref ON cond
         | join_ref RIGHT JOIN table_ref ON cond
         ;
table_ref : ID | ID ID | ID AS ID | '(' select_stmt ')' ID ;

opt_where : WHERE cond | %empty ;
opt_group : GROUP BY column_list | %empty ;
opt_having : HAVING cond | %empty ;
opt_order : ORDER BY order_items | %empty ;
order_items : order_item | order_items ',' order_item ;
order_item : expr | expr ASC | expr DESC ;
column_list : column | column_list ',' column ;
column : ID | ID '.' ID ;

cond : cond OR andcond | andcond ;
andcond : andcond AND notcond | notcond ;
notcond : NOT notcond | predicate ;
predicate : expr relop expr
          | expr IS NULL
          | expr IS NOT NULL
          | expr LIKE STRING
          | expr IN '(' select_stmt ')'
          | expr IN '(' value_list ')'
          | EXISTS '(' select_stmt ')'
          | '(' cond ')'
          ;
relop : '=' | '<' | '>' | '<=' | '>=' | '<>' ;

expr : expr '+' term | expr '-' term | term ;
term : term '*' factor | term '/' factor | factor ;
factor : value
       | column
       | '(' expr ')'
       | '-' factor
       | func_call
       | case_expr
       ;
func_call : COUNT '(' '*' ')'
          | COUNT '(' expr ')'
          | SUM '(' expr ')'
          | AVG '(' expr ')'
          | MIN '(' expr ')'
          | MAX '(' expr ')'
          | ID '(' value_list ')'
          ;
case_expr : CASE when_clauses opt_else END ;
when_clauses : when_clause | when_clauses when_clause ;
when_clause : WHEN cond THEN expr ;
opt_else : ELSE expr | %empty ;

value : NUM | STRING | NULL | TRUE | FALSE | PARAM ;
value_list : expr | value_list ',' expr ;

insert_stmt : INSERT INTO ID opt_columns VALUES '(' value_list ')'
            | INSERT INTO ID opt_columns select_stmt
            ;
opt_columns : '(' column_list ')' | %empty ;

update_stmt : UPDATE ID SET set_items opt_where ;
set_items : set_item | set_items ',' set_item ;
set_item : ID '=' expr ;

delete_stmt : DELETE FROM ID opt_where ;

create_stmt : CREATE TABLE ID '(' col_defs ')' ;
col_defs : col_def | col_defs ',' col_def ;
col_def : ID type_name col_constraints ;
type_name : INT_T | FLOAT_T | CHAR_T '(' NUM ')' | VARCHAR_T '(' NUM ')'
          | DATE_T | BOOLEAN_T ;
col_constraints : col_constraints col_constraint | %empty ;
col_constraint : NOT NULL | PRIMARY KEY | UNIQUE | DEFAULT value ;

drop_stmt : DROP TABLE ID ;
"""


def sql_base() -> Grammar:
    return load_grammar(SQL_BASE, name="sql-base")


def _sql1() -> Grammar:
    text = add_rules(SQL_BASE, "when_clause : WHEN cond THEN expr ELSE expr ;")
    return load_grammar(text, name="SQL.1")


def _sql2() -> Grammar:
    text = add_rules(SQL_BASE, "join_ref : join_ref JOIN join_ref ON cond ;")
    return load_grammar(text, name="SQL.2")


def _sql3() -> Grammar:
    text = add_rules(SQL_BASE, "drop_stmt : DROP TABLE qualified ;\nqualified : ID ;")
    return load_grammar(text, name="SQL.3")


def _sql4() -> Grammar:
    text = add_rules(SQL_BASE, "factor : factor '^' factor ;")
    return load_grammar(text, name="SQL.4")


def _sql5() -> Grammar:
    text = add_rules(SQL_BASE, "cond : cond AND cond ;")
    return load_grammar(text, name="SQL.5")


register(
    GrammarSpec(
        name="SQL.1",
        category="bv10",
        loader=_sql1,
        ambiguous=True,
        paper=PaperRow(8, 23, 46, 1, True, 1, 0, 0, 0.024, 0.024),
    )
)
register(
    GrammarSpec(
        name="SQL.2",
        category="bv10",
        loader=_sql2,
        ambiguous=True,
        paper=PaperRow(29, 81, 151, 1, True, 1, 0, 0, 0.060, 0.060),
    )
)
register(
    GrammarSpec(
        name="SQL.3",
        category="bv10",
        loader=_sql3,
        ambiguous=True,
        paper=PaperRow(29, 81, 149, 1, True, 1, 0, 0, 0.024, 0.024),
    )
)
register(
    GrammarSpec(
        name="SQL.4",
        category="bv10",
        loader=_sql4,
        ambiguous=True,
        paper=PaperRow(29, 81, 151, 1, True, 1, 0, 0, 0.031, 0.031),
    )
)
register(
    GrammarSpec(
        name="SQL.5",
        category="bv10",
        loader=_sql5,
        ambiguous=True,
        paper=PaperRow(29, 81, 151, 1, True, 1, 0, 0, 0.030, 0.030),
    )
)
