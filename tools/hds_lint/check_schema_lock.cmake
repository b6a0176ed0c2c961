# Regenerates the schema lock from the tree and byte-compares it with the
# committed tests/golden/schema.lock.  A mismatch means the tree changed
# the results schema without regenerating the lock in the same commit.
#
# Inputs: HDS_LINT, SOURCE_DIR, WORK_DIR.

execute_process(
  COMMAND ${HDS_LINT} --write-schema-lock ${WORK_DIR}/schema.lock.regen
          ${SOURCE_DIR}/src ${SOURCE_DIR}/tools ${SOURCE_DIR}/bench
          ${SOURCE_DIR}/tests
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "hds_lint --write-schema-lock failed (exit ${RC})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/schema.lock.regen
          ${SOURCE_DIR}/tests/golden/schema.lock
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR
    "tests/golden/schema.lock is stale: regenerate with "
    "`build/tools/hds_lint --write-schema-lock tests/golden/schema.lock "
    "src tools bench tests` and commit the diff")
endif()
