# ctest jiscbench/bad_flag/<flag>=<value>: `jiscbench run <spec> --<flag>
# <value>` must exit 2 (usage error) with one "jiscbench: --<flag> ..." line.
#   cmake -DJISCBENCH=... -DSPEC=... -DCASE=<flag>=<value> -DWORK=<dir> -P ...

string(REGEX REPLACE "=.*" "" flag "${CASE}")
string(REGEX REPLACE "^[^=]*=" "" value "${CASE}")
execute_process(
  COMMAND ${JISCBENCH} run ${SPEC} --${flag} ${value} --scale 0.02
          --out ${WORK}/bad_flag.run.json
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT status EQUAL 2 OR NOT out MATCHES "^jiscbench: --${flag} [^\n]*\n$")
  message(FATAL_ERROR
          "--${flag} ${value}: exit ${status}, expected 2 and one line "
          "starting 'jiscbench: --${flag}'; output:\n${out}")
endif()
