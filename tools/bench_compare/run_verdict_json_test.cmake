# The --json verdict must stay strict JSON when a regressing table's
# title holds a control character (here a tab): the run must report
# the regression, no raw control character may reach the file (JSON
# strings must escape U+0000..U+001F), and the title must read back
# unchanged.

execute_process(
    COMMAND ${COMPARE_BIN} --json=${VERDICT} ${BASELINE} ${CANDIDATE}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "bench_compare exited with ${rc}, expected 1")
endif()

file(READ ${VERDICT} verdict)
string(REGEX REPLACE "\n$" "" verdict "${verdict}")
foreach(code RANGE 1 31)
    string(ASCII ${code} ch)
    string(FIND "${verdict}" "${ch}" pos)
    if(NOT pos EQUAL -1)
        message(FATAL_ERROR
            "verdict holds raw control character ${code} at ${pos}")
    endif()
endforeach()

string(JSON title ERROR_VARIABLE err GET "${verdict}" regressions 0 table)
if(err)
    message(FATAL_ERROR "verdict does not parse: ${err}")
endif()
string(ASCII 9 tab)
if(NOT title STREQUAL "Fixture:${tab}commit breakdown")
    message(FATAL_ERROR "table title did not round-trip: '${title}'")
endif()
