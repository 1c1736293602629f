# ctest jisc_verify/config_errors: an explicit --config that is missing or
# is not JSON must stop jisc_verify with exit 2 and a one-line message —
# not run the scan without waivers, and not end in a traceback.
#
#   cmake -DPYTHON=<python3> -DVERIFY=<tools/jisc_verify> -DWORK=<dir>
#         -P config_errors.cmake

function(expect_config_error config regex)
  execute_process(
    COMMAND ${PYTHON} ${VERIFY} --frontend textual --config ${config}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT status EQUAL 2 OR NOT out MATCHES "^jisc-verify: ${regex}[^\n]*\n$")
    message(FATAL_ERROR
            "--config ${config}: exit ${status}, expected 2 and one line "
            "matching 'jisc-verify: ${regex}'; output:\n${out}")
  endif()
endfunction()

file(REMOVE ${WORK}/missing_config.json)
expect_config_error(${WORK}/missing_config.json
                    "cannot read waiver config .*missing_config.json: ")
file(WRITE ${WORK}/empty_config.json "")
expect_config_error(${WORK}/empty_config.json
                    "waiver config .*empty_config.json is not valid JSON: ")
